package qserve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/snapmgr"
)

// FuzzSpecDecode feeds arbitrary query strings to every registered
// kind's Decode, then Validate against a small snapshot. Each must
// return an error or Args the kind's kernels can run on — vertex
// operands in range, k within maxKHop, a finite PageRank tolerance no
// smaller than minPageRankTol — and the quick-answer and cache-key
// projections must accept them. Never a panic.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []string{
		"src=3", "src=3&delta=-5", "u=1&v=2&live=1", "u=1&v=2&live=yes",
		"src=1&k=4294967295", "tol=1e-300", "tol=NaN", "tol=-1",
		"src=18446744073709551616", "src=%zz", "src=1&src=2", "",
	} {
		f.Add(s)
	}
	const n = 16
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, sp := range Specs() {
			a, err := sp.Decode(q)
			if err != nil {
				continue
			}
			if err := sp.Validate(a, n); err != nil {
				continue
			}
			if (sp.vertexA && a.A >= n) || (sp.vertexB && a.B >= n) {
				t.Fatalf("%s: %q validated out-of-range args %+v", sp.Name(), raw, a)
			}
			switch sp {
			case SpecKHop:
				if a.B > maxKHop {
					t.Fatalf("khop: %q decoded k = %d", raw, a.B)
				}
			case SpecPageRank:
				if tol := PageRankTol(a); math.IsNaN(tol) || math.IsInf(tol, 0) || tol < minPageRankTol {
					t.Fatalf("pagerank: %q decoded tol = %v", raw, tol)
				}
			}
			sp.Quick(a)
			sp.CacheKey(a)
		}
	})
}

// FuzzIngestBody posts arbitrary bytes to both ingest routes of a small
// executor. Neither may panic or answer 5xx. A 200 is allowed only for
// exactly one JSON array of in-range updates with known ops, and then
// reports every update applied; any such body must be accepted; a
// refused body leaves the store's arc count unchanged.
func FuzzIngestBody(f *testing.F) {
	for _, s := range []string{
		`[{"u":1,"v":2,"t":3}]`, `[{"u":1,"v":2}] {"junk": tru`, `[]`, "[]\n",
		`null`, `{"u":1,"v":2}`, `[{"u":99,"v":2}]`, `[{"u":1,"v":2,"op":"del"}]`,
		`[{"u":1,"v":2,"op":"upsert"}]`, `[{"u":-1,"v":2}]`, `[{"u":1.5,"v":2}]`,
		`[{"u":1,"v":1,"t":4294967295,"op":"insert"},{"u":3,"v":0,"op":"ins"}]`,
		`[{"u":1,"v":2}][]`, `[{"U":1,"V":2,"T":3,"Op":"delete"}]`, ``,
	} {
		f.Add([]byte(s))
	}
	const n = 16
	known := map[string]bool{"": true, "insert": true, "ins": true, "delete": true, "del": true}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want []IngestUpdate
		valid := json.Unmarshal(body, &want) == nil && want != nil
		for _, u := range want {
			valid = valid && u.U < n && u.V < n && known[u.Op]
		}
		mgr := snapmgr.New(1, dyngraph.NewTracked(dyngraph.NewHybrid(n, 0, 0, 1)))
		h := NewServer(New(mgr, Config{Undirected: true}), true, 1).Handler()
		for _, path := range []string{"/ingest", "/v1/ingest"} {
			arcs := mgr.Store().NumEdges()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch code := rec.Code; {
			case code == http.StatusOK:
				var reply IngestReply
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
					t.Fatalf("%s %q: 200 with undecodable reply %q", path, body, rec.Body)
				}
				if !valid || reply.Applied != len(want) {
					t.Fatalf("%s %q: accepted, applied %d (valid %v, %d updates)", path, body, reply.Applied, valid, len(want))
				}
			case code >= 400 && code < 500:
				if valid {
					t.Fatalf("%s %q: refused a valid batch with %d: %s", path, body, code, rec.Body)
				}
				if got := mgr.Store().NumEdges(); got != arcs {
					t.Fatalf("%s %q: refused with %d but the store went %d -> %d arcs", path, body, code, arcs, got)
				}
			default:
				t.Fatalf("%s %q: status %d: %s", path, body, code, rec.Body)
			}
		}
	})
}
