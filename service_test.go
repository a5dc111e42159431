package snapdyn

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
)

// executorFor builds a qserve executor over the facade manager's
// internal snapshot manager — the serving stack the snapserve daemon
// and the service figure run, reachable here because the facade and
// its tests share the package.
func executorFor(sm *SnapshotManager, cfg qserve.Config) *qserve.Executor {
	return qserve.New(sm.m, cfg)
}

// TestAutoRefreshHammer is the serving-layer -race hammer required by
// the serving subsystem: concurrent gated ingest through
// SnapshotManager.ApplyUpdates, the background auto-refresher
// publishing on its own, and pooled executor queries all running at
// once. Asserts epochs stay monotone, queries never fail (beyond
// admission shedding), and the final drained state equals a full
// rebuild arc for arc.
func TestAutoRefreshHammer(t *testing.T) {
	const (
		n         = 1 << 9
		ingesters = 3
		queriers  = 3
		rounds    = 12
	)
	edges, err := GenerateRMAT(0, PaperRMAT(9, 8*n, 50, 21))
	if err != nil {
		t.Fatal(err)
	}
	g := New(n, WithExpectedEdges(4*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	m := g.Manager(2)
	if !m.StartAutoRefresh(AutoRefreshPolicy{MaxDirty: 32, MaxAge: 2 * time.Millisecond, Poll: time.Millisecond}) {
		t.Fatal("StartAutoRefresh returned false")
	}
	defer m.StopAutoRefresh()

	ex := executorFor(m, qserve.Config{Undirected: true, MaxConcurrent: 2, MaxQueue: 1 << 20})

	extra, err := GenerateRMAT(0, PaperRMAT(9, 8*n, 50, 22))
	if err != nil {
		t.Fatal(err)
	}

	var fail atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Gated ingest from several goroutines at once: each applies its
	// own slice of a mixed stream in batches, relying on the manager's
	// gate to serialize against the background refresher.
	for in := 0; in < ingesters; in++ {
		wg.Add(1)
		go func(in int) {
			defer wg.Done()
			per := len(extra) / ingesters
			mine := extra[in*per : (in+1)*per]
			for r := 0; r < rounds; r++ {
				lo := r * len(mine) / rounds
				hi := (r + 1) * len(mine) / rounds
				batch := make([]Update, 0, hi-lo)
				for _, e := range mine[lo:hi] {
					batch = append(batch, Update{Edge: e, Op: OpInsert})
				}
				m.ApplyUpdates(1, batch)
			}
		}(in)
	}

	// Pooled queries against whatever epoch is current.
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			src := uint32(q + 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch i % 3 {
				case 0:
					_, err = ex.BFS(src % n)
				case 1:
					_, err = ex.SSSP(src%n, 0)
				default:
					_, err = ex.Connected(src%n, (src+13)%n)
				}
				if err != nil {
					t.Errorf("query failed: %v", err)
					fail.Add(1)
					return
				}
				src = src*1664525 + 1013904223
			}
		}(q)
	}

	// Epoch monotonicity watcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := m.Epoch()
			if e < last {
				t.Errorf("epoch regressed %d -> %d", last, e)
				fail.Add(1)
				return
			}
			last = e
		}
	}()

	// Wait until the background refresher has demonstrably fired and
	// caught up at least once; ingest may still be running, which is
	// fine — wg.Wait below joins the ingesters before the final check.
	deadline := time.Now().Add(30 * time.Second)
	for m.Staleness() != 0 || m.Metrics().AutoRefreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("refresher never drained: %+v", m.Metrics())
		}
		if fail.Load() != 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if fail.Load() != 0 {
		t.Fatal("hammer observed failures")
	}

	// Drain any dirt that raced the shutdown, then compare against a
	// full rebuild: the incrementally maintained snapshot must be
	// identical arc for arc.
	m.StopAutoRefresh()
	inc, full := m.Refresh(0), g.Snapshot(0)
	if inc.NumEdges() != full.NumEdges() {
		t.Fatalf("final snapshot has %d arcs, full rebuild %d", inc.NumEdges(), full.NumEdges())
	}
	for u := VertexID(0); int(u) < n; u++ {
		ia, it := inc.Neighbors(u)
		fa, ft := full.Neighbors(u)
		if len(ia) != len(fa) {
			t.Fatalf("vertex %d: %d arcs incremental, %d full", u, len(ia), len(fa))
		}
		for i := range ia {
			if ia[i] != fa[i] || it[i] != ft[i] {
				t.Fatalf("vertex %d arc %d: (%d@%d) incremental, (%d@%d) full",
					u, i, ia[i], it[i], fa[i], ft[i])
			}
		}
	}
	met := m.Metrics()
	if met.AutoRefreshes == 0 || met.Refreshes < met.AutoRefreshes {
		t.Fatalf("implausible metrics after hammer: %+v", met)
	}
}

// TestSnapshotManagerGatedIngest exercises the facade ingest methods
// without the refresher: they mutate through the gate and mirror like
// the Graph methods.
func TestSnapshotManagerGatedIngest(t *testing.T) {
	g := New(16, Undirected())
	m := g.Manager(1)
	m.InsertEdge(1, 2, 7)
	m.ApplyUpdates(1, []Update{{Edge: Edge{U: 3, V: 4, T: 9}, Op: OpInsert}})
	s := m.Refresh(1)
	if s.NumEdges() != 4 {
		t.Fatalf("arcs = %d, want 4 (two mirrored edges)", s.NumEdges())
	}
	if !m.DeleteEdge(1, 2) {
		t.Fatal("DeleteEdge reported missing edge")
	}
	if m.DeleteEdge(1, 2) {
		t.Fatal("second DeleteEdge should report false")
	}
	if s := m.Refresh(1); s.NumEdges() != 2 {
		t.Fatalf("arcs after delete = %d, want 2", s.NumEdges())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("graph arcs = %d, want 2 (manager ingest hits the same store)", g.NumEdges())
	}
}

// BenchmarkServiceQuery measures the steady-state serving path — a
// pooled-scratch executor query against the managed snapshot — at the
// acceptance scale (R-MAT 16, m=10n, undirected). allocs/op must stay
// at zero: the kernel scratch comes from the executor's free list, not
// per-request allocation (the pool's allocation test enforces the same
// invariant).
func BenchmarkServiceQuery(b *testing.B) {
	const scale = 16
	n := 1 << scale
	edges, err := GenerateRMAT(0, PaperRMAT(scale, 10*n, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := New(n, WithExpectedEdges(4*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	sm := g.Manager(0)
	ex := executorFor(sm, qserve.Config{Undirected: true, MaxConcurrent: 1})
	src := sm.Current().SampleSources(1, 1)[0]

	warm := func(b *testing.B) {
		b.Helper()
		if _, err := ex.BFS(src); err != nil {
			b.Fatal(err)
		}
		if _, err := ex.SSSP(src, 0); err != nil {
			b.Fatal(err)
		}
	}
	arcs := float64(sm.Current().NumEdges())

	b.Run("bfs", func(b *testing.B) {
		warm(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.BFS(src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(arcs*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
	})
	b.Run("sssp", func(b *testing.B) {
		warm(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.SSSP(src, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(arcs*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
	})
}

// BenchmarkCachedBFS prices the snapshot-identity result cache at the
// acceptance scale, as a hit/miss pair. The hit variant repeats one hot
// source against a warm, generously budgeted cache: steady state must
// run the kernel zero times and allocate zero objects per op. The miss
// variant cycles more sources than the starved budget can hold, so
// every op recomputes and pays the eviction bookkeeping on top of the
// kernel — the two bounds that bracket any real hit rate.
func BenchmarkCachedBFS(b *testing.B) {
	const scale = 16
	n := 1 << scale
	edges, err := GenerateRMAT(0, PaperRMAT(scale, 10*n, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := New(n, WithExpectedEdges(4*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	sm := g.Manager(0)
	srcs := sm.Current().SampleSources(64, 1)
	arcs := float64(sm.Current().NumEdges())

	b.Run("hit", func(b *testing.B) {
		ex := executorFor(sm, qserve.Config{Undirected: true, MaxConcurrent: 1,
			CacheBytes: 256 << 20})
		for i := 0; i < 2; i++ {
			if _, err := ex.BFS(srcs[0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.BFS(srcs[0]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := ex.Stats()
		if st.CacheHits < uint64(b.N) {
			b.Fatalf("hit variant missed: %d hits for %d ops", st.CacheHits, b.N)
		}
		b.ReportMetric(arcs*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
	})
	b.Run("miss", func(b *testing.B) {
		// A budget that holds only two entries: cycling 64 sources
		// guarantees every op recomputes and evicts.
		ex := executorFor(sm, qserve.Config{Undirected: true, MaxConcurrent: 1,
			CacheBytes: 2 * qcache.EntryBytes})
		if _, err := ex.BFS(srcs[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		// Offset by one: the first timed op must not collide with the
		// warm-up entry while it is still resident.
		for i := 0; i < b.N; i++ {
			if _, err := ex.BFS(srcs[(i+1)%len(srcs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := ex.Stats()
		if st.CacheMisses < uint64(b.N) {
			b.Fatalf("miss variant hit: %d misses for %d ops", st.CacheMisses, b.N)
		}
		b.ReportMetric(arcs*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
	})
}
