package snapdyn

// One testing.B benchmark per figure of the paper's evaluation, backed by
// the drivers in internal/bench, plus ablation benches for the paper's
// design choices (degree threshold, initial array size, batching,
// lock-free inserts). Run with:
//
//	go test -bench=. -benchmem
//
// Each figure bench reports MUPS (millions of updates per second, the
// paper's metric) for the headline series as a custom metric. The bench
// scale is laptop-friendly (n = 2^14, m = 10n unless noted); use
// cmd/snapbench to run larger instances and full worker sweeps.

import (
	"fmt"
	"testing"

	ibench "snapdyn/internal/bench"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/stream"
	"snapdyn/internal/timing"
)

func benchConfig() ibench.Config {
	return ibench.Config{Scale: 14, EdgeFactor: 10, TimeMax: 100, Seed: 1, Workers: []int{1, 2, 4}}
}

// reportBest attaches the best MUPS per series as custom metrics.
func reportBest(b *testing.B, t *timing.Table) {
	b.Helper()
	for label, m := range t.BestMUPS() {
		b.ReportMetric(m.MUPS(), label+"_MUPS")
	}
}

func BenchmarkFig1InsertScaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := ibench.Fig1InsertScaling(cfg, []int{10, 12, 14})
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig2ResizeOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := ibench.Fig2ResizeOverhead(cfg)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig3Partitioning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := ibench.Fig3Partitioning(cfg)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig4Insertions(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := ibench.Fig4Insertions(cfg)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig5Deletions(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := ibench.Fig5Deletions(cfg, 0.075)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig6Mixed(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := ibench.Fig6Mixed(cfg)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig7LCTBuild(b *testing.B) {
	cfg := benchConfig()
	cfg.EdgeFactor = 8 // the paper's 10M/84M instance has m ≈ 8.4n
	for i := 0; i < b.N; i++ {
		t := ibench.Fig7LCTBuild(cfg)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig8Queries(b *testing.B) {
	cfg := benchConfig()
	cfg.EdgeFactor = 8
	for i := 0; i < b.N; i++ {
		t := ibench.Fig8Queries(cfg, 200_000)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig9Subgraph(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := ibench.Fig9Subgraph(cfg)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig10BFS(b *testing.B) {
	cfg := benchConfig()
	cfg.EdgeFactor = 8
	for i := 0; i < b.N; i++ {
		t := ibench.Fig10BFS(cfg)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

func BenchmarkFig11TemporalBC(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 12 // BC is O(sources * m): keep the default run quick
	for i := 0; i < b.N; i++ {
		t := ibench.Fig11TemporalBC(cfg, 64)
		if i == b.N-1 {
			reportBest(b, t)
		}
	}
}

// --- Traversal engines ---------------------------------------------------

// benchmarkBFSEngine measures steady-state BFS over an RMAT scale-16
// snapshot through the reusable Traverser, so allocs/op reflects the
// zero-allocation frontier infrastructure rather than arena warm-up.
func benchmarkBFSEngine(b *testing.B, strategy BFSStrategy) {
	const scale = 16
	p := PaperRMAT(scale, 10<<scale, 100, 42)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	snap := g.Snapshot(0)
	src := snap.SampleSources(1, 7)[0]
	tr := snap.Traverser(BFSOptions{Strategy: strategy})
	want := tr.BFS(src).Reached
	b.ReportAllocs()
	b.ResetTimer()
	var res *BFSResult
	for i := 0; i < b.N; i++ {
		res = tr.BFS(src)
	}
	b.StopTimer()
	if res.Reached != want {
		b.Fatalf("reached %d, want %d", res.Reached, want)
	}
	b.ReportMetric(float64(snap.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

// BenchmarkBFSTopDown is the classic push-only baseline.
func BenchmarkBFSTopDown(b *testing.B) { benchmarkBFSEngine(b, BFSTopDown) }

// BenchmarkBFSDirectionOpt is the direction-optimizing push/pull engine;
// compare ns/op, allocs/op, and MTEPS against BenchmarkBFSTopDown.
func BenchmarkBFSDirectionOpt(b *testing.B) { benchmarkBFSEngine(b, BFSDirectionOpt) }

// BenchmarkBetweenness measures sampled static betweenness on an R-MAT
// scale-14 snapshot through the unified visitor engine. The topdown
// series reproduces the hand-rolled serial Brandes loop this engine
// replaced (same edge visits, same DAG construction); the dirop series
// adds the bottom-up pull step per source — compare the two to see the
// engine's saturated-level savings compound across sources.
func BenchmarkBetweenness(b *testing.B) {
	const scale = 14
	p := PaperRMAT(scale, 10<<scale, 100, 42)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	snap := g.Snapshot(0)
	sources := snap.SampleSources(32, 7)
	for _, eng := range []struct {
		name     string
		strategy BFSStrategy
	}{{"topdown", BFSTopDown}, {"dirop", BFSDirectionOpt}} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			var bc []float64
			for i := 0; i < b.N; i++ {
				bc = snap.Betweenness(0, BCOptions{Sources: sources, Strategy: eng.strategy})
			}
			_ = bc
			teps := float64(snap.NumEdges()) * float64(len(sources)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(teps/1e6, "MTEPS")
		})
	}
}

// BenchmarkCloseness measures sampled closeness through the same engine
// (level-count hooks only). The facade picks the engine itself —
// direction-optimizing on this undirected snapshot — so there is one
// series; use `snapbench -fig kernel -kernel closeness -bfs topdown`
// for the push-only baseline.
func BenchmarkCloseness(b *testing.B) {
	const scale = 14
	p := PaperRMAT(scale, 10<<scale, 100, 42)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	snap := g.Snapshot(0)
	sources := snap.SampleSources(64, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap.Closeness(0, sources)
	}
	teps := float64(snap.NumEdges()) * float64(len(sources)) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(teps/1e6, "MTEPS")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationDegreeThresh sweeps the hybrid representation's
// degree-thresh over a mixed workload, the design parameter the paper
// tunes to 32.
func BenchmarkAblationDegreeThresh(b *testing.B) {
	cfg := benchConfig()
	edges := mustEdges(b, cfg)
	extraCfg := cfg
	extraCfg.Seed += 99
	extra := mustEdges(b, extraCfg)
	ups, err := stream.Mixed(edges, extra, len(edges)/5, 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, thresh := range []int{8, 16, 32, 64, 128} {
		b.Run(benchName("thresh", thresh), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := dyngraph.NewHybrid(1<<cfg.Scale, len(edges), thresh, 1)
				dyngraph.InsertAll(s, 0, edges)
				s.ApplyBatch(0, ups)
			}
			b.ReportMetric(float64(len(ups)), "updates")
		})
	}
}

// BenchmarkAblationInitialSize sweeps Dyn-arr's initial adjacency size
// (the paper's k·m/n heuristic vs fixed sizes) over pure construction.
func BenchmarkAblationInitialSize(b *testing.B) {
	cfg := benchConfig()
	edges := mustEdges(b, cfg)
	ups := stream.Inserts(edges)
	for _, init := range []int{1, 4, 16, 64} {
		b.Run(benchName("init", init), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := dyngraph.NewDynArrInitial(1<<cfg.Scale, init, len(edges))
				s.ApplyBatch(0, ups)
			}
		})
	}
	b.Run("init=2m_over_n", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := dyngraph.NewDynArr(1<<cfg.Scale, len(edges))
			s.ApplyBatch(0, ups)
		}
	})
}

// BenchmarkAblationBatchVsStream compares per-update streaming against
// semi-sorted batched application on the same store.
func BenchmarkAblationBatchVsStream(b *testing.B) {
	cfg := benchConfig()
	edges := mustEdges(b, cfg)
	ups := stream.Inserts(edges)
	b.Run("streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := dyngraph.NewDynArr(1<<cfg.Scale, len(edges))
			s.ApplyBatch(0, ups)
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := dyngraph.NewBatched(dyngraph.NewDynArr(1<<cfg.Scale, len(edges)))
			s.ApplyBatch(0, ups)
		}
	})
}

// BenchmarkAblationLockFreeInserts compares the spinlock-protected
// fixed-capacity array (Dyn-arr-nr) against the true lock-free variant
// (atomic slot claim + atomic publish), quantifying the paper's
// "lock-free, non-blocking insertions" claim under contention.
func BenchmarkAblationLockFreeInserts(b *testing.B) {
	cfg := benchConfig()
	edges := mustEdges(b, cfg)
	ups := stream.Inserts(edges)
	degrees := make([]int, 1<<cfg.Scale)
	for _, e := range edges {
		degrees[e.U]++
	}
	b.Run("spinlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := dyngraph.NewDynArrNoResize(degrees)
			s.ApplyBatch(0, ups)
		}
	})
	b.Run("lockfree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := dyngraph.NewLockFreeArr(degrees)
			s.ApplyBatch(0, ups)
		}
	})
}

// ssspBenchGraph builds the weighted SSSP benchmark instance: R-MAT
// scale 16, m = 10n, time labels in [1, 100] doubling as arc weights.
func ssspBenchGraph(b *testing.B) *Graph {
	b.Helper()
	const scale = 16
	p := PaperRMAT(scale, 10<<scale, 100, 6)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	return g
}

// ssspBenchSnapshot freezes ssspBenchGraph and picks the source.
func ssspBenchSnapshot(b *testing.B) (*Snapshot, VertexID) {
	b.Helper()
	snap := ssspBenchGraph(b).Snapshot(0)
	return snap, snap.SampleSources(1, 1)[0]
}

// BenchmarkSSSPDeltaStepping measures weighted shortest paths (the
// paper's future-work kernel) through the scratch-reusing
// delta-stepping kernel: steady state over a warm SSSPScratch, so
// allocs/op reflects the zero-allocation relaxation loop rather than
// the one-time buffer sizing. Compare MTEPS against
// BenchmarkSSSPDijkstra.
func BenchmarkSSSPDeltaStepping(b *testing.B) {
	snap, src := ssspBenchSnapshot(b)
	opt := SSSPOptions{Scratch: NewSSSPScratch()}
	snap.SSSPWith(src, opt) // warm the kernel buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.SSSPWith(src, opt)
	}
	b.ReportMetric(float64(snap.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

// BenchmarkSSSPColdSnapshot is BenchmarkSSSPDeltaStepping's instance as
// a serving scratch sees it under ingest: every query lands on a newly
// published snapshot, so each iteration re-chooses the bucket width
// (a fixed-size label sample) before relaxing. It alternates two
// snapshots of the same graph at the pooled executors' Workers = 1; the
// gap to BenchmarkSSSPDeltaStepping is what a refresh costs an SSSP
// query. After the first lap the path must not allocate.
func BenchmarkSSSPColdSnapshot(b *testing.B) {
	g := ssspBenchGraph(b)
	snaps := [2]*Snapshot{g.Snapshot(0), g.Snapshot(0)}
	src := snaps[0].SampleSources(1, 1)[0]
	opt := SSSPOptions{Workers: 1, Scratch: NewSSSPScratch()}
	lap := func() {
		snaps[0].SSSPWith(src, opt)
		snaps[1].SSSPWith(src, opt)
	}
	lap() // size the kernel buffers and the bucket ring
	if allocs := testing.AllocsPerRun(2, lap); allocs != 0 {
		b.Fatalf("cold-snapshot SSSP allocates %g objects per lap, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps[i&1].SSSPWith(src, opt)
	}
	b.ReportMetric(float64(snaps[0].NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

// BenchmarkSSSPDijkstra is the sequential typed-heap baseline over the
// same instance.
func BenchmarkSSSPDijkstra(b *testing.B) {
	snap, src := ssspBenchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.ShortestPathsDijkstra(src)
	}
	b.ReportMetric(float64(snap.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

// BenchmarkStoreInsertSingle measures single-edge insert latency per
// representation.
// BenchmarkSnapshotRefresh measures the incremental snapshot pipeline's
// materialization cost against the full rebuild it replaces, at R-MAT
// scale 16: each iteration applies updates (untimed) and times only
// SnapshotManager.Refresh. The cases differ in the *shape* of the dirty
// set, which decides what a refresh costs (two cores, go1.24):
//
//   - dirty=0.001|0.01|0.1 — uniform stride: that fraction of the vertex
//     ids, evenly spaced, one arc inserted or deleted at each (m = 10n,
//     directed). Almost all are array-mode leaves, so the arcs to
//     re-enumerate are about the same fraction of m: 2.5-3.5 ms, ~3 ms
//     and ~4.5 ms against full-rebuild's 24-30 ms (9x, 9x, 6x).
//   - rmat-churn — the served shape: R-MAT inserts plus lagged deletes
//     until 4096 vertices are dirty (m = 8n, undirected). The dirty
//     vertices are the hubs and own 60 % of the arcs (dirty-arc-frac),
//     but two thirds of them are treap-mode and patched from their
//     touched keys (patched-frac), so 1.5 % of the arcs are enumerated
//     (enum-arc-frac): ~8 ms, against 16-17 ms when every dirty vertex
//     was re-walked and ~25 ms for a full rebuild.
//
// csr.RefreshMaxEnumFrac's doc comment has the sweep over enumerated
// fractions the fallback rule was derived from.
func BenchmarkSnapshotRefresh(b *testing.B) {
	const scale = 16
	n := 1 << scale
	edges, err := GenerateRMAT(0, PaperRMAT(scale, 10*n, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	build := func(b *testing.B) *Graph {
		b.Helper()
		g := New(n, WithExpectedEdges(2*len(edges)))
		g.InsertEdges(0, edges)
		return g
	}
	dirtyBatch := func(k, round int) []Update {
		batch := make([]Update, k)
		stride := n / k
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < k; i++ {
			u := VertexID((i * stride) % n)
			e := Edge{U: u, V: u ^ 1, T: uint32(round + 1)}
			op := OpInsert
			if round%2 == 1 {
				op = OpDelete // remove the previous round's edge: size stays stable
			}
			batch[i] = Update{Edge: e, Op: op}
		}
		return batch
	}
	for _, frac := range []float64{0.001, 0.01, 0.10} {
		b.Run(fmt.Sprintf("dirty=%g", frac), func(b *testing.B) {
			g := build(b)
			m := g.Manager(0)
			k := max(1, int(frac*float64(n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g.ApplyUpdates(0, dirtyBatch(k, i))
				b.StartTimer()
				m.Refresh(0)
			}
			b.ReportMetric(float64(m.Current().NumEdges())/1e6, "Marcs")
		})
	}
	b.Run("full-rebuild", func(b *testing.B) {
		g := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g.ApplyUpdates(0, dirtyBatch(max(1, n/1000), i))
			b.StartTimer()
			g.Snapshot(0)
		}
	})

	// The served shape (benchmark/'s churn stream against snapserve's
	// defaults): an undirected m=8n graph, 1024-update batches of fresh
	// R-MAT inserts plus the deletes of the inserts eight batches back,
	// applied until -refresh-dirty's 4096 vertices are dirty. The store
	// is built once and churned in place across iterations and b.N
	// rounds — the stream is stationary, so the graph does not grow.
	var churn *refreshChurn
	b.Run("rmat-churn", func(b *testing.B) {
		if churn == nil {
			churn = newRefreshChurn(b, scale)
		}
		var owned, enumerated, patched float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			owned += churn.dirtyUntil(4096)
			b.StartTimer()
			churn.m.Refresh(0)
			met := churn.m.Metrics()
			enumerated += float64(met.LastEnumeratedArcs)
			patched += float64(met.LastPatched) / float64(met.LastDirty)
		}
		arcs := float64(churn.m.Current().NumEdges()) * float64(b.N)
		b.ReportMetric(owned/arcs, "dirty-arc-frac")
		b.ReportMetric(enumerated/arcs, "enum-arc-frac")
		b.ReportMetric(patched/float64(b.N), "patched-frac")
	})
}

// refreshChurn is BenchmarkSnapshotRefresh/rmat-churn's state: the
// graph, its manager, and the lagged-delete update stream.
type refreshChurn struct {
	g       *Graph
	m       *SnapshotManager
	scale   int
	k       int
	history [8][]Edge
}

func newRefreshChurn(b *testing.B, scale int) *refreshChurn {
	b.Helper()
	n := 1 << scale
	edges, err := GenerateRMAT(0, PaperRMAT(scale, 8*n, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := New(n, Undirected(), WithExpectedEdges(4*len(edges)))
	g.InsertEdges(0, edges)
	return &refreshChurn{g: g, m: g.Manager(0), scale: scale}
}

// dirtyUntil applies churn batches until at least want vertices are
// dirty and returns the arcs those vertices own.
func (c *refreshChurn) dirtyUntil(want int) float64 {
	for c.m.Staleness() < want {
		fresh, err := GenerateRMAT(0, PaperRMAT(c.scale, 512, 100, uint64(c.k)+2))
		if err != nil {
			panic(err)
		}
		slot := c.k % len(c.history)
		batch := make([]Update, 0, 1024)
		for _, e := range fresh {
			batch = append(batch, Update{Edge: e, Op: OpInsert})
		}
		for _, e := range c.history[slot] {
			batch = append(batch, Update{Edge: e, Op: OpDelete})
		}
		c.history[slot] = fresh
		c.k++
		c.m.ApplyUpdates(0, batch)
	}
	var owned float64
	for _, u := range c.g.store.Dirty(nil) {
		owned += float64(c.g.store.Degree(u))
	}
	return owned
}

func BenchmarkStoreInsertSingle(b *testing.B) {
	const n = 1 << 14
	mk := map[string]func() dyngraph.Store{
		"dyn-arr": func() dyngraph.Store { return dyngraph.NewDynArr(n, n*10) },
		"treaps":  func() dyngraph.Store { return dyngraph.NewTreapStore(n, 1) },
		"hybrid":  func() dyngraph.Store { return dyngraph.NewHybrid(n, n*10, 0, 1) },
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			s := f()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Insert(uint32(i)&(n-1), uint32(i*7)&(n-1), uint32(i))
			}
		})
	}
}

func mustEdges(b *testing.B, cfg ibench.Config) []Edge {
	b.Helper()
	p := PaperRMAT(cfg.Scale, cfg.EdgeFactor<<cfg.Scale, cfg.TimeMax, cfg.Seed)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	return edges
}

func benchName(k string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return k + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return k + "=" + string(buf[i:])
}
