package qserve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qcache"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
	"snapdyn/internal/traversal"
)

// verifyCachedEntries recomputes up to limit ready entries of gen
// uncached against gen's own pinned snapshot — the bit-identity oracle:
// a cached reply must be indistinguishable from running the kernel on
// the exact snapshot the entry was computed from, no matter how many
// refreshes have happened since. The served kernel reruns from a
// scratch set built with ex's config; its per-vertex output, read from
// the set, must match an independent reference kernel vertex by vertex.
func verifyCachedEntries(t *testing.T, ex *Executor, gen *qcache.Gen, limit int) int {
	t.Helper()
	if gen == nil {
		return 0
	}
	view, ok := gen.ID().(*snapmgr.View)
	if !ok || view == nil {
		t.Fatalf("generation identity %T is not a view", gen.ID())
	}
	g := view.G
	s := newScratchSet(ex.cfg)
	checked := 0
	gen.Range(func(k qcache.Key, v qcache.Value) bool {
		switch k.Kind {
		case qcache.KindBFS:
			want := traversal.BFS(1, g, uint32(k.A))
			if int64(want.Reached) != v.N1 || int64(want.Levels) != v.N2 {
				t.Errorf("cached BFS(%d) = (%d,%d), uncached on pinned view = (%d,%d)",
					k.A, v.N1, v.N2, want.Reached, want.Levels)
				return false
			}
			if got := s.bfsValue(view, Args{A: k.A}); got != v {
				t.Errorf("cached BFS(%d) = %+v, served kernel on pinned view %+v", k.A, v, got)
				return false
			}
			for i, l := range s.res.Level {
				if l != want.Level[i] {
					t.Errorf("served BFS(%d) level[%d] = %d, reference %d", k.A, i, l, want.Level[i])
					return false
				}
			}
		case qcache.KindSSSP:
			if got := s.ssspValue(view, Args{A: k.A, B: k.B}); got != v {
				t.Errorf("cached SSSP(%d) = %+v, served kernel on pinned view %+v", k.A, v, got)
				return false
			}
			dist := sssp.Run(g, uint32(k.A), sssp.Options{Workers: 1, Delta: int64(k.B)})
			if len(s.dist) != len(dist) {
				t.Errorf("served SSSP(%d) has %d distances, reference %d", k.A, len(s.dist), len(dist))
				return false
			}
			for i, d := range s.dist {
				if d != dist[i] {
					t.Errorf("served SSSP(%d) dist[%d] = %d, reference %d", k.A, i, d, dist[i])
					return false
				}
			}
		case qcache.KindConnected:
			conn, hops := traversal.STConnected(1, g, uint32(k.A), uint32(k.B))
			if conn != v.Flag || int64(hops) != v.N1 {
				t.Errorf("cached Connected(%d,%d) = (%v,%d), uncached (%v,%d)",
					k.A, k.B, v.Flag, v.N1, conn, hops)
				return false
			}
		case qcache.KindComponents:
			comp := cc.Components(1, g)
			if int64(cc.Count(comp)) != v.N1 {
				t.Errorf("cached Components count = %d, uncached %d", v.N1, cc.Count(comp))
				return false
			}
		}
		checked++
		return checked < limit
	})
	return checked
}

// TestCacheHammer is the tentpole -race test: concurrent cached queries
// over a hot source pool while gated ingest keeps the store dirty and
// the background auto-refresher republishes real snapshots — with a
// verifier thread continuously proving every cached entry bit-identical
// to an uncached kernel run on the entry's own pinned snapshot, even
// for generations whose snapshot is no longer the published one.
func TestCacheHammer(t *testing.T) {
	mgr, edges := newManager(t, 9, 23)
	if !mgr.Start(snapmgr.Policy{MaxDirty: 256, MaxAge: 2 * time.Millisecond,
		Poll: time.Millisecond, Workers: 2}) {
		t.Fatal("auto-refresher failed to start")
	}
	defer mgr.Stop()
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 4, MaxQueue: 1 << 20,
		CacheBytes: 16 << 20})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Queriers over a small hot pool, so repeats (and therefore hits and
	// coalesces) actually happen within each generation's lifetime.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			src := uint32(q)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch i % 4 {
				case 0, 1:
					_, err = ex.BFS(src % 16)
				case 2:
					_, err = ex.SSSP(src%16, 0)
				default:
					_, err = ex.Connected(src%16, (src+5)%16)
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("query failed: %v", err)
					return
				}
				src = src*1664525 + 1013904223
			}
		}(q)
	}

	// Verifier: live generations must answer bit-identically to uncached
	// execution on their pinned snapshot, and must never be ahead of the
	// manager.
	verified := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen := ex.cache.Current()
			verified += verifyCachedEntries(t, ex, gen, 3)
			if gen != nil && gen.Epoch() > mgr.Epoch() {
				t.Errorf("generation epoch %d ahead of manager %d", gen.Epoch(), mgr.Epoch())
				return
			}
		}
	}()

	// Ingest rounds on the main goroutine: fresh arcs with new time
	// labels, each round crossing the dirty threshold so real refreshes
	// keep retiring generations mid-flight.
	for round := 0; round < 30; round++ {
		var batch []edge.Update
		for i := 0; i < 200; i++ {
			e := edges[(round*200+i)%len(edges)]
			batch = append(batch,
				edge.Update{Edge: edge.Edge{U: e.U, V: e.V, T: e.T + uint32(round) + 1}, Op: edge.Insert},
				edge.Update{Edge: edge.Edge{U: e.V, V: e.U, T: e.T + uint32(round) + 1}, Op: edge.Insert})
		}
		mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(0, batch) })
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if verified == 0 {
		t.Fatal("verifier never checked a cached entry")
	}

	c := ex.cache.Counters()
	if c.Hits == 0 || c.Misses == 0 {
		t.Fatalf("hammer exercised no cache traffic: %+v", c)
	}

	// Entries never outlive their snapshot: after one more real refresh,
	// the next query's generation is pinned to the new published view and
	// holds only what was computed against it.
	oldGen := ex.cache.Current()
	mgr.Ingest(func(s *dyngraph.Tracked) {
		s.ApplyBatch(0, []edge.Update{
			{Edge: edge.Edge{U: 1, V: 2, T: 9999}, Op: edge.Insert},
			{Edge: edge.Edge{U: 2, V: 1, T: 9999}, Op: edge.Insert},
		})
	})
	deadline := time.Now().Add(10 * time.Second)
	for mgr.View() == oldGen.ID().(*snapmgr.View) {
		if time.Now().After(deadline) {
			t.Fatal("refresher never republished after ingest")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ex.BFS(1); err != nil {
		t.Fatal(err)
	}
	newGen := ex.cache.Current()
	if newGen == oldGen {
		t.Fatal("generation survived a real snapshot swap")
	}
	if newGen.ID().(*snapmgr.View) != mgr.View() {
		t.Fatal("live generation not pinned to the published view")
	}
}

// TestCacheIdentityInvalidation pins the invalidation contract from
// doc.go: a no-op refresh (epoch bump, identical view pointer) keeps
// every entry alive and hitting; a real refresh (new view) retires the
// generation, and the next identical query misses and recomputes on the
// new snapshot.
func TestCacheIdentityInvalidation(t *testing.T) {
	mgr, _ := newManager(t, 8, 29)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 8 << 20})

	if _, err := ex.BFS(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SSSP(1, 0); err != nil {
		t.Fatal(err)
	}
	gen := ex.cache.Current()
	if gen == nil || gen.Len() != 2 {
		t.Fatalf("expected 2 cached entries, got %+v", gen.Len())
	}

	// No-op refresh: nothing dirty, so the manager republishes the same
	// view under a bumped epoch. The cache keys by view identity, so both
	// entries must survive and hit.
	view := mgr.View()
	epoch := mgr.Epoch()
	mgr.Refresh(0)
	if mgr.Epoch() != epoch+1 {
		t.Fatalf("refresh did not bump epoch: %d then %d", epoch, mgr.Epoch())
	}
	if mgr.View() != view {
		t.Fatal("clean refresh replaced the view pointer; identity test needs a no-op republish")
	}
	got, err := ex.BFS(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != epoch+1 {
		t.Fatalf("post-refresh reply epoch = %d, want %d", got.Epoch, epoch+1)
	}
	c := ex.cache.Counters()
	if c.Hits != 1 {
		t.Fatalf("hit across no-op refresh not counted: %+v", c)
	}
	if ex.cache.Current() != gen {
		t.Fatal("no-op refresh replaced the generation")
	}

	// Real refresh: mutate and republish. The old generation is retired
	// wholesale; the same query misses and recomputes.
	mgr.Ingest(func(s *dyngraph.Tracked) {
		s.ApplyBatch(0, []edge.Update{
			{Edge: edge.Edge{U: 3, V: 200, T: 77}, Op: edge.Insert},
			{Edge: edge.Edge{U: 200, V: 3, T: 77}, Op: edge.Insert},
		})
	})
	mgr.Refresh(0)
	if mgr.View() == view {
		t.Fatal("dirty refresh republished the same view pointer")
	}
	missesBefore := ex.cache.Counters().Misses
	if _, err := ex.BFS(1); err != nil {
		t.Fatal(err)
	}
	nc := ex.cache.Counters()
	if nc.Misses != missesBefore+1 || nc.Hits != 1 {
		t.Fatalf("real refresh did not invalidate: %+v", nc)
	}
	ngen := ex.cache.Current()
	if ngen == gen || ngen.Len() != 1 {
		t.Fatalf("new generation should hold exactly the recomputed entry, got len %d", ngen.Len())
	}
	if verifyCachedEntries(t, ex, ngen, 8) != 1 {
		t.Fatal("post-refresh entry not verifiable")
	}
}

// TestCacheHitZeroAlloc is the allocation-regression guard for the hit
// path: once a result is cached, repeat BFS, SSSP, and connectivity
// queries allocate zero objects per op — no scratch checkout, no
// closure, no boxing, reply built from the immutable cached value.
func TestCacheHitZeroAlloc(t *testing.T) {
	mgr, _ := newManager(t, 10, 31)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 64 << 20})

	warm := func() {
		if _, err := ex.BFS(1); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.SSSP(1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Connected(1, 2); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	if c := ex.cache.Counters(); c.Hits < 3 {
		t.Fatalf("warm-up did not hit the cache: %+v", c)
	}

	if n := testing.AllocsPerRun(50, func() {
		if _, err := ex.BFS(1); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("cache-hit BFS allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := ex.SSSP(1, 0); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("cache-hit SSSP allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := ex.Connected(1, 2); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("cache-hit connectivity allocates %.1f objects/op, want 0", n)
	}
}

// TestCachedStatsWireFields asserts the cache counters ride the /stats
// reply: hits, misses, bytes present after traffic; all-zero with the
// cache disabled.
func TestCachedStatsWireFields(t *testing.T) {
	mgr, _ := newManager(t, 8, 37)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 8 << 20})
	for i := 0; i < 2; i++ {
		if _, err := ex.BFS(1); err != nil {
			t.Fatal(err)
		}
	}
	st := ex.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheBytes <= 0 {
		t.Fatalf("stats cache fields = hits %d misses %d bytes %d, want 1/1/>0",
			st.CacheHits, st.CacheMisses, st.CacheBytes)
	}
	m := ex.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.CacheBytes != st.CacheBytes {
		t.Fatalf("metrics cache fields inconsistent with stats: %+v", m)
	}

	off := New(mgr, Config{Undirected: true, MaxConcurrent: 1})
	if _, err := off.BFS(1); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheBytes != 0 {
		t.Fatalf("disabled cache reported traffic: %+v", st)
	}
}

// TestMinEpochGatingWithCache pins the freshness contract on the hit
// path: a warmed cache entry does not let a query dodge its minEpoch —
// the handler gates on epoch before the lookup, so an unreachable
// minEpoch still 503s even though the answer sits in the cache, and a
// satisfied minEpoch is served from the cache.
func TestMinEpochGatingWithCache(t *testing.T) {
	mgr, _ := newManager(t, 8, 41)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 8 << 20})
	srv := NewServer(ex, true, 1)
	srv.SetStaleWait(20 * time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/query/bfs?src=1"); code != http.StatusOK {
		t.Fatalf("warming query = %d", code)
	}
	if c := ex.cache.Counters(); c.Misses != 1 {
		t.Fatalf("warming query did not populate the cache: %+v", c)
	}

	// The entry is cached, but a future minEpoch must still shed: hit on
	// a stale snapshot is stale regardless of how cheap it is.
	future := mgr.Epoch() + 100
	if code := get(fmt.Sprintf("/query/bfs?src=1&minEpoch=%d", future)); code != http.StatusServiceUnavailable {
		t.Fatalf("unreachable minEpoch on cached entry = %d, want 503", code)
	}

	// A satisfiable minEpoch serves the cached value.
	hits := ex.cache.Counters().Hits
	if code := get(fmt.Sprintf("/query/bfs?src=1&minEpoch=%d", mgr.Epoch())); code != http.StatusOK {
		t.Fatalf("satisfiable minEpoch = %d, want 200", code)
	}
	if c := ex.cache.Counters(); c.Hits != hits+1 {
		t.Fatalf("satisfiable minEpoch did not hit the cache: %+v", c)
	}
}
