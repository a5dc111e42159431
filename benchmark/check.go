package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"

	"snapdyn/internal/edge"
)

// gateSamples is how many sampled queries per kind the correctness
// gate compares (kinds without operands have one distinct request).
const gateSamples = 32

// envelope is the decoded v1 reply frame.
type envelope struct {
	Kind  string         `json:"kind"`
	Epoch uint64         `json:"epoch"`
	Cache string         `json:"cache"`
	Data  map[string]any `json:"data"`
}

func decodeEnvelope(body []byte) (envelope, error) {
	var e envelope
	if err := json.Unmarshal(body, &e); err != nil {
		return e, fmt.Errorf("decoding %q: %w", body, err)
	}
	delete(e.Data, "epoch")
	return e, nil
}

// oracle is the reference the server's answers are compared with: the
// identical initial graph plus every acknowledged batch, in
// acknowledged order, in an in-process single-store executor with the
// result cache off.
type oracle struct {
	st      *stack
	handler http.Handler
}

func buildOracle(in *graphInput, acked [][]edge.Update) (*oracle, error) {
	st, err := buildStack(in, stackConfig{})
	if err != nil {
		return nil, err
	}
	for _, b := range acked {
		if _, err := st.ingest(b); err != nil {
			return nil, err
		}
	}
	st.refresh()
	return &oracle{st: st, handler: st.srv.Handler()}, nil
}

func (o *oracle) query(path []byte) (envelope, error) {
	rr := httptest.NewRecorder()
	o.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, string(path), nil))
	if rr.Code != http.StatusOK {
		return envelope{}, fmt.Errorf("oracle %s: status %d", path, rr.Code)
	}
	return decodeEnvelope(rr.Body.Bytes())
}

// sameData compares a server reply with the oracle's. Every kind must
// agree exactly except PageRank, whose float sums depend on adjacency
// order (and small batches are applied without a per-vertex order, so
// two stores holding the same graph may store it in different orders):
// ranks are compared within a relative 1e-6 and the iteration count is
// not compared. On the fleet PageRank is a different iteration (Jacobi,
// the documented tolerance-band exception) and the band is 1e-3.
func sameData(kind string, fleet bool, got, want map[string]any) bool {
	if kind != "pagerank" {
		return reflect.DeepEqual(got, want)
	}
	band := 1e-6
	if fleet {
		band = 1e-3
	}
	for _, f := range []string{"maxRank", "sumRank"} {
		g, _ := got[f].(float64)
		w, _ := want[f].(float64)
		if w == 0 || math.Abs(g-w)/math.Abs(w) > band {
			return false
		}
	}
	return got["tol"] == want["tol"]
}

// gate compares sampled replies of every kind against the oracle at
// quiesce. Each sampled request is sent twice, so the pair is a miss
// (or hit) followed by a hit on the same snapshot: their data must be
// identical, and identical to the oracle's. Snapshot and live
// connectivity must give the same verdict. It returns the number of
// comparisons made; mismatches are recorded as failures.
func gate(base string, fleet bool, or *oracle, in *graphInput, seed uint64, res *driveResult) int {
	c := newConn()
	defer c.close()
	gen := newQueryGen(in.giant, 0, 0, seed^0x5bd1e995)
	attempted := 0
	var path []byte

	fetch := func() (envelope, bool) {
		code, err := c.get(base, path)
		if err != nil || code != http.StatusOK {
			res.failf("gate %s: status %d err %v", path, code, err)
			return envelope{}, false
		}
		e, err := decodeEnvelope(c.body.Bytes())
		if err != nil {
			res.failf("gate %s: %v", path, err)
			return envelope{}, false
		}
		return e, true
	}

	for kind, k := range registryMix {
		samples := gateSamples
		if k.global {
			samples = 1
		}
		for i := 0; i < samples; i++ {
			q := gen.sample(kind)
			path = q.path(path[:0])
			attempted++
			first, ok := fetch()
			if !ok {
				continue
			}
			second, ok := fetch()
			if !ok {
				continue
			}
			if !reflect.DeepEqual(first.Data, second.Data) || first.Epoch != second.Epoch {
				res.failf("gate %s: %s and %s replies differ on one snapshot: %v vs %v",
					path, first.Cache, second.Cache, first.Data, second.Data)
				continue
			}
			want, err := or.query(path)
			if err != nil {
				res.failf("gate: %v", err)
				continue
			}
			if !sameData(k.name, fleet, first.Data, want.Data) {
				res.failf("gate %s: server %v, oracle %v", path, first.Data, want.Data)
				continue
			}
			if k.live {
				// Live against snapshot: same pair, no live flag.
				snap := query{kind: uint8(kindIndex("connected")), u: q.u, v: q.v}
				path = snap.path(path[:0])
				s, ok := fetch()
				if ok && s.Data["connected"] != first.Data["connected"] {
					res.failf("gate u=%d v=%d: live says %v, snapshot says %v",
						q.u, q.v, first.Data["connected"], s.Data["connected"])
				}
			}
		}
	}
	return attempted
}

func kindIndex(name string) int {
	for i, k := range registryMix {
		if k.name == name {
			return i
		}
	}
	panic("unknown mix kind " + name)
}
