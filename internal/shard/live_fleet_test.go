package shard

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"snapdyn/internal/dynconn/conntest"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// TestFleetLiveQuiesce is the fleet's consistency oracle: per-shard
// forests joined by label merge must agree exactly with the fleet's
// next published snapshot set — component count and sampled pair
// connectivity — after every churn round (inserts and deletes, tree
// edges included).
func TestFleetLiveQuiesce(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		n, ups := testUpdates(t, 8, 6, 31)
		ups = stream.Mirror(ups)
		f := testFleet(n, p, ups)
		ex := NewExecutor(f, qserve.Config{Undirected: true})
		ex.EnableLive()

		r := xrand.New(uint64(900 + p))
		var alive []edge.Edge
		nextT := uint32(1 << 20)
		for round := 0; round < 6; round++ {
			var batch []edge.Update
			dels := 15
			if dels > len(alive) {
				dels = len(alive)
			}
			for i := 0; i < dels; i++ {
				j := int(r.Uint32n(uint32(len(alive))))
				e := alive[j]
				alive[j] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				batch = append(batch, edge.Update{Edge: e, Op: edge.Delete})
			}
			for i := 0; i < 25; i++ {
				u, v := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
				if u == v {
					continue
				}
				e := edge.Edge{U: u, V: v, T: nextT}
				nextT++
				alive = append(alive, e)
				batch = append(batch, edge.Update{Edge: e, Op: edge.Insert})
			}
			if _, err := ex.Ingest(1, stream.Mirror(batch)); err != nil {
				t.Fatal(err)
			}

			f.Refresh(2)
			snap, err := ex.Components()
			if err != nil {
				t.Fatal(err)
			}
			if live := ex.Live().Components(); live != snap.Components {
				t.Fatalf("shards=%d round %d: merged forests have %d components, snapshot %d",
					p, round, live, snap.Components)
			}
			for i := 0; i < 20; i++ {
				u, v := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
				lr, err := ex.ConnectedLive(u, v)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := ex.Connected(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if lr.Connected != sr.Connected {
					t.Fatalf("shards=%d round %d: ConnectedLive(%d,%d) = %v, snapshot %v",
						p, round, u, v, lr.Connected, sr.Connected)
				}
				if !lr.Live {
					t.Fatalf("shards=%d: live reply not flagged live: %+v", p, lr)
				}
				if u != v && lr.Hops != -1 {
					t.Fatalf("shards=%d: live reply claims a hop count: %+v", p, lr)
				}
			}
		}
	}
}

// TestFleetLiveUnsupportedUntilEnabled pins the fleet's live contract:
// ErrUnsupported before EnableLive, the reflexive quick answer
// excepted.
func TestFleetLiveUnsupportedUntilEnabled(t *testing.T) {
	n, ups := testUpdates(t, 6, 4, 37)
	f := testFleet(n, 2, stream.Mirror(ups))
	ex := NewExecutor(f, qserve.Config{Undirected: true})

	if _, err := ex.ConnectedLive(1, 2); !errors.Is(err, qserve.ErrUnsupported) {
		t.Fatalf("fleet ConnectedLive before EnableLive: err = %v, want ErrUnsupported", err)
	}
	r, err := ex.ConnectedLive(5, 5)
	if err != nil || !r.Connected || r.Hops != 0 {
		t.Fatalf("reflexive live reply %+v, %v", r, err)
	}
	ex.EnableLive()
	if _, err := ex.ConnectedLive(1, 2); err != nil {
		t.Fatalf("fleet ConnectedLive after EnableLive: %v", err)
	}
}

// TestFleetHTTPQuerySurface serves the fleet executor through the same
// registry-generated HTTP surface as the single-snapshot engine: every
// analytics kind and live connectivity answer over /v1, and the offline
// betweenness job — which needs a resident global CSR no shard has —
// answers 501 unsupported at POST.
func TestFleetHTTPQuerySurface(t *testing.T) {
	n, ups := testUpdates(t, 8, 6, 41)
	f := testFleet(n, 4, stream.Mirror(ups))
	ex := NewExecutor(f, qserve.Config{Undirected: true})
	ex.EnableLive()
	ts := httptest.NewServer(qserve.NewServer(ex, true, 1).Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	for _, tc := range []struct{ kind, params string }{
		{"clustering", ""},
		{"khop", "?src=1&k=2"},
		{"pagerank", ""},
		{"connected", "?u=1&v=2&live=1"},
	} {
		code, env := get("/v1/query/" + tc.kind + tc.params)
		if code != http.StatusOK {
			t.Fatalf("fleet %s%s: status %d (%v)", tc.kind, tc.params, code, env)
		}
		if env["kind"] != tc.kind || env["data"] == nil {
			t.Fatalf("fleet %s%s: envelope %v", tc.kind, tc.params, env)
		}
		if tc.params == "?u=1&v=2&live=1" && env["cache"] != "live" {
			t.Fatalf("fleet live query disposition %v, want live", env["cache"])
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs/betweenness", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("fleet betweenness job: status %d, want 501 (%v)", resp.StatusCode, body)
	}
	obj, _ := body["error"].(map[string]any)
	if obj == nil || obj["code"] != "unsupported" {
		t.Fatalf("fleet betweenness job error body %v", body)
	}
}

// TestFleetLiveModelConcurrentIngest is the fleet's live model test:
// one forest over every shard's store, fed by four concurrent writers
// (conntest.Writer churn) beside a refresher, so batches reconcile in
// an order other than the one their sub-batches reached the shards in.
// At every quiesce the forest must partition every vertex exactly as
// the components of the union of the shards' stores do, with every
// tree edge live in its owner's store.
func TestFleetLiveModelConcurrentIngest(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		n, ups := testUpdates(t, 8, 2, 47)
		f := testFleet(n, p, stream.Mirror(ups))
		ex := NewExecutor(f, qserve.Config{Undirected: true})
		ex.EnableLive()
		initial := make([]edge.Edge, len(ups))
		for i, up := range ups {
			initial[i] = up.Edge
		}
		stores := make([]dyngraph.Store, p)
		for s := range stores {
			stores[s] = f.Manager(s).Store()
		}
		const writers = 4
		ws := make([]*conntest.Writer, writers)
		for w := range ws {
			ws[w] = conntest.NewWriter(uint64(500+10*p+w), n, w, writers, initial)
		}
		for phase := 0; phase < 3; phase++ {
			var wg sync.WaitGroup
			done := make(chan struct{})
			go func() {
				for {
					select {
					case <-done:
						return
					default:
						f.Refresh(2)
					}
				}
			}()
			for _, w := range ws {
				wg.Add(1)
				go func(w *conntest.Writer) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if _, err := ex.Ingest(1, w.Batch()); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(done)

			want := conntest.Labels(stores...)
			if err := conntest.SamePartition(ex.Live().Labels(nil), want); err != nil {
				t.Fatalf("shards=%d phase %d: %v", p, phase, err)
			}
			if err := ex.Live().CheckInvariants(); err != nil {
				t.Fatalf("shards=%d phase %d: %v", p, phase, err)
			}
		}
	}
}

// TestFleetLiveDirected pins the directed fleet's live index: owners
// hold no in-arcs, so the forest keeps a private store seeded from
// every shard's snapshot, and it agrees with the weak connectivity of
// the shards' stores.
func TestFleetLiveDirected(t *testing.T) {
	n, ups := testUpdates(t, 8, 2, 53)
	f := testFleet(n, 2, ups)
	ex := NewExecutor(f, qserve.Config{})
	ex.EnableLive()
	r := xrand.New(59)
	for i := 0; i < 20; i++ {
		e := edge.Edge{U: r.Uint32n(uint32(n)), V: r.Uint32n(uint32(n)), T: uint32(1<<20 + i)}
		if _, err := ex.Ingest(1, []edge.Update{{Edge: e, Op: edge.Insert}}); err != nil {
			t.Fatal(err)
		}
	}
	want := conntest.Labels(f.Manager(0).Store(), f.Manager(1).Store())
	if err := conntest.SamePartition(ex.Live().Labels(nil), want); err != nil {
		t.Fatal(err)
	}
	if err := ex.Live().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
