package sssp

import (
	"fmt"
	"testing"
	"testing/quick"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/traversal"
	"snapdyn/internal/xrand"
)

func weightedGraph(n int, undirected bool, es ...[3]uint32) *csr.Graph {
	edges := make([]edge.Edge, len(es))
	for i, e := range es {
		edges[i] = edge.Edge{U: e[0], V: e[1], T: e[2]} // T doubles as weight
	}
	return csr.FromEdges(1, n, edges, undirected)
}

func TestDijkstraLine(t *testing.T) {
	g := weightedGraph(4, true, [3]uint32{0, 1, 5}, [3]uint32{1, 2, 7}, [3]uint32{2, 3, 2})
	dist := Dijkstra(g, 0, LabelWeights)
	want := []int64{0, 5, 12, 14}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestDijkstraPicksShorterPath(t *testing.T) {
	// 0->2 direct costs 10; 0->1->2 costs 3+4=7.
	g := weightedGraph(3, false,
		[3]uint32{0, 2, 10}, [3]uint32{0, 1, 3}, [3]uint32{1, 2, 4})
	dist := Dijkstra(g, 0, LabelWeights)
	if dist[2] != 7 {
		t.Fatalf("dist[2] = %d, want 7", dist[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := weightedGraph(3, false, [3]uint32{0, 1, 1})
	dist := Dijkstra(g, 0, LabelWeights)
	if dist[2] != Inf {
		t.Fatalf("dist[2] = %d, want Inf", dist[2])
	}
}

func TestUnitWeightsMatchBFS(t *testing.T) {
	p := rmat.PaperParams(10, 6*(1<<10), 100, 3)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, p.NumVertices(), edgesL, true)
	src := edge.ID(0)
	dist := Dijkstra(g, src, UnitWeights)
	res := traversal.BFS(0, g, src)
	for v := range dist {
		want := int64(res.Level[v])
		if res.Level[v] == traversal.NotVisited {
			want = Inf
		}
		if dist[v] != want {
			t.Fatalf("dist[%d] = %d, BFS level %d", v, dist[v], res.Level[v])
		}
	}
}

func TestDeltaSteppingMatchesDijkstraSmall(t *testing.T) {
	g := weightedGraph(5, true,
		[3]uint32{0, 1, 2}, [3]uint32{1, 2, 2}, [3]uint32{0, 3, 9},
		[3]uint32{2, 3, 1}, [3]uint32{3, 4, 6}, [3]uint32{1, 4, 20})
	want := Dijkstra(g, 0, LabelWeights)
	for _, delta := range []int64{1, 2, 5, 100, 0} {
		got := DeltaStepping(2, g, 0, LabelWeights, delta)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("delta=%d: dist[%d] = %d, want %d", delta, v, got[v], want[v])
			}
		}
	}
}

func TestDeltaSteppingMatchesDijkstraRMAT(t *testing.T) {
	p := rmat.PaperParams(10, 8*(1<<10), 1000, 7)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, p.NumVertices(), edgesL, true)
	for _, src := range []edge.ID{0, 17, 999} {
		want := Dijkstra(g, src, LabelWeights)
		for _, workers := range []int{1, 4} {
			got := DeltaStepping(workers, g, src, LabelWeights, 0)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("workers=%d src=%d: dist[%d] = %d, want %d",
						workers, src, v, got[v], want[v])
				}
			}
		}
	}
}

func TestDeltaSteppingZeroWeights(t *testing.T) {
	// Zero-weight edges are legal (light, no infinite loop).
	g := weightedGraph(4, true,
		[3]uint32{0, 1, 0}, [3]uint32{1, 2, 0}, [3]uint32{2, 3, 5})
	want := Dijkstra(g, 0, LabelWeights)
	got := DeltaStepping(2, g, 0, LabelWeights, 3)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	if got[2] != 0 || got[3] != 5 {
		t.Fatalf("zero-weight distances wrong: %v", got)
	}
}

func TestDeltaSteppingProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 12 + int(r.Uint32n(20))
		var es []edge.Edge
		for i := 0; i < 4*n; i++ {
			es = append(es, edge.Edge{
				U: r.Uint32n(uint32(n)), V: r.Uint32n(uint32(n)),
				T: r.Uint32n(30),
			})
		}
		g := csr.FromEdges(1, n, es, true)
		src := edge.ID(r.Uint32n(uint32(n)))
		want := Dijkstra(g, src, LabelWeights)
		got := DeltaStepping(3, g, src, LabelWeights, 1+int64(r.Uint32n(20)))
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSteppingHubBatch exercises the edge-partitioned relaxation
// phases: a star graph puts one hub with thousands of arcs into a
// one-vertex batch, which the arc prefix sum must split across workers
// (the old vertex partitioning would serialize it), including the
// straddling-block bookkeeping at every worker boundary.
func TestDeltaSteppingHubBatch(t *testing.T) {
	const n = 5000
	var es []edge.Edge
	for v := 1; v < n; v++ {
		// Spoke weights vary so light and heavy phases both split the hub.
		es = append(es, edge.Edge{U: 0, V: uint32(v), T: uint32(1 + v%40)})
	}
	g := csr.FromEdges(0, n, es, true)
	for _, workers := range []int{1, 2, 4, 7} {
		for _, delta := range []int64{1, 10, 50} {
			got := DeltaStepping(workers, g, 0, LabelWeights, delta)
			assertMatchesDijkstra(t, g, 0, got,
				fmt.Sprintf("star w=%d delta=%d", workers, delta))
		}
	}
	// Hub in the middle of a larger batch: a path into the hub plus the
	// spokes, traversed from the path end.
	es = append(es, edge.Edge{U: uint32(n - 1), V: 0, T: 3})
	g = csr.FromEdges(0, n, es, true)
	got := DeltaStepping(4, g, uint32(n-1), LabelWeights, 25)
	assertMatchesDijkstra(t, g, uint32(n-1), got, "hub mid-batch")
}

// assertMatchesDijkstra checks a delta-stepping result against the
// baseline on every vertex.
func assertMatchesDijkstra(t *testing.T, g *csr.Graph, src edge.ID, got []int64, ctx string) {
	t.Helper()
	want := Dijkstra(g, src, LabelWeights)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", ctx, v, got[v], want[v])
		}
	}
}

func TestDeltaSteppingExtremes(t *testing.T) {
	p := rmat.PaperParams(10, 8*(1<<10), 30, 9)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, p.NumVertices(), edgesL, true)
	maxPath := int64(0)
	for _, d := range Dijkstra(g, 3, LabelWeights) {
		if d != Inf && d > maxPath {
			maxPath = d
		}
	}
	for _, delta := range []int64{
		1,           // every non-zero arc is heavy: one band per distance unit
		maxPath,     // single band: the whole run is one light fixpoint
		maxPath * 2, // delta beyond any path length
	} {
		for _, workers := range []int{1, 4} {
			got := DeltaStepping(workers, g, 3, LabelWeights, delta)
			assertMatchesDijkstra(t, g, 3, got, "extreme delta")
		}
	}

	// The default delta, mean weight / (2*sqrt(mean degree)), pinned
	// where the closed form is extreme; it must stay >= 1 and distances
	// exact. Unit weights put the mean at 1, so the degree term floors.
	sc := NewScratch()
	got := Run(g, 3, Options{Workers: 2, Weights: UnitWeights, Scratch: sc})
	if sc.prep.Delta != 1 {
		t.Fatalf("unit weights: default delta %d, want 1", sc.prep.Delta)
	}
	for v, want := range Dijkstra(g, 3, UnitWeights) {
		if got[v] != want {
			t.Fatalf("unit weights: dist[%d] = %d, want %d", v, got[v], want)
		}
	}
	// A star's mean degree is 2 however large the hub: 1000/(2*sqrt(2)).
	const leaves = 4096
	var star, clique []edge.Edge
	for v := uint32(1); v <= leaves; v++ {
		star = append(star, edge.Edge{U: 0, V: v, T: 1000})
	}
	// A clique on 64 vertices with weights 1..8: 4.5/(2*sqrt(63)) < 1.
	for u := uint32(0); u < 64; u++ {
		for v := u + 1; v < 64; v++ {
			clique = append(clique, edge.Edge{U: u, V: v, T: 1 + (u+v)%8})
		}
	}
	for _, tc := range []struct {
		name  string
		g     *csr.Graph
		delta int64
	}{
		{"star", csr.FromEdges(0, leaves+1, star, true), 353},
		{"clique", csr.FromEdges(0, 64, clique, true), 1},
	} {
		for _, workers := range []int{1, 4} {
			got := Run(tc.g, 1, Options{Workers: workers, Scratch: sc})
			if sc.prep.Delta != tc.delta {
				t.Fatalf("%s: default delta %d, want %d", tc.name, sc.prep.Delta, tc.delta)
			}
			assertMatchesDijkstra(t, tc.g, 1, got, tc.name+" default delta")
		}
	}
}

func TestDeltaSteppingDisconnected(t *testing.T) {
	// Two components plus an isolated vertex; distances in the source's
	// component are exact, everything else Inf.
	g := weightedGraph(7, true,
		[3]uint32{0, 1, 4}, [3]uint32{1, 2, 3},
		[3]uint32{4, 5, 7}, [3]uint32{5, 6, 1})
	for _, src := range []edge.ID{0, 4, 3} {
		got := DeltaStepping(2, g, src, LabelWeights, 0)
		assertMatchesDijkstra(t, g, src, got, "disconnected")
	}
	if d := DeltaStepping(1, g, 0, LabelWeights, 0); d[4] != Inf || d[3] != Inf {
		t.Fatalf("cross-component distances not Inf: %v", d)
	}
}

func TestDeltaSteppingRingOverflow(t *testing.T) {
	// Weights far above delta force heavy relaxations beyond the capped
	// cyclic ring window, exercising the overflow redistribution path.
	g := weightedGraph(6, true,
		[3]uint32{0, 1, 50_000}, [3]uint32{1, 2, 120_000},
		[3]uint32{0, 3, 250_000}, [3]uint32{3, 4, 2},
		[3]uint32{2, 4, 90_000}, [3]uint32{0, 5, 1})
	for _, workers := range []int{1, 3} {
		got := DeltaStepping(workers, g, 0, LabelWeights, 1)
		assertMatchesDijkstra(t, g, 0, got, "ring overflow")
	}
}

func TestDeltaSteppingOverflowShortcut(t *testing.T) {
	// Regression: a long light chain keeps the ring non-empty while a
	// heavy shortcut lands in overflow beyond the capped ring window
	// (band 5000 >= span 4096 at delta=1). The band scan must not pass
	// the overflow band — the shortcut's continuation is the shortest
	// path to the tail vertex and would otherwise be lost.
	const chain = 6000
	es := make([][3]uint32, 0, chain+3)
	for v := uint32(0); v < chain-1; v++ {
		es = append(es, [3]uint32{v, v + 1, 1})
	}
	es = append(es,
		[3]uint32{0, chain, 5000},          // heavy shortcut into overflow
		[3]uint32{chain, chain + 1, 1},     // its continuation
		[3]uint32{chain - 1, chain + 1, 2}, // chain-side path, longer
	)
	g := weightedGraph(chain+2, true, es...)
	for _, workers := range []int{1, 2} {
		got := DeltaStepping(workers, g, 0, LabelWeights, 1)
		assertMatchesDijkstra(t, g, 0, got, "overflow shortcut")
		if got[chain+1] != 5001 {
			t.Fatalf("workers=%d: dist[%d] = %d, want 5001 (via shortcut)", workers, chain+1, got[chain+1])
		}
	}
}

func TestScratchReuseAcrossGraphsAndSources(t *testing.T) {
	sc := NewScratch()
	big := func() *csr.Graph {
		p := rmat.PaperParams(10, 8*(1<<10), 500, 21)
		es, _ := rmat.Generate(0, p)
		return csr.FromEdges(0, p.NumVertices(), es, true)
	}()
	small := func() *csr.Graph {
		p := rmat.PaperParams(7, 6*(1<<7), 50, 22)
		es, _ := rmat.Generate(0, p)
		return csr.FromEdges(0, p.NumVertices(), es, true)
	}()
	for i := 0; i < 6; i++ {
		g, src := big, edge.ID(i*101)
		if i%2 == 1 {
			g, src = small, edge.ID(i*13)
		}
		got := Run(g, src, Options{Workers: 2, Scratch: sc})
		assertMatchesDijkstra(t, g, src, got, "scratch reuse")
	}
}

func TestScratchWeightFunctionCacheKey(t *testing.T) {
	g := weightedGraph(3, true, [3]uint32{0, 1, 5}, [3]uint32{1, 2, 5})
	sc := NewScratch()
	if d := Run(g, 0, Options{Scratch: sc}); d[2] != 10 {
		t.Fatalf("label weights: dist[2] = %d, want 10", d[2])
	}
	// Same graph and delta, different named weight function: the cache
	// key includes the function identity, so no Invalidate is needed.
	if d := Run(g, 0, Options{Scratch: sc, Weights: UnitWeights}); d[2] != 2 {
		t.Fatalf("unit weights on warm scratch: dist[2] = %d, want 2", d[2])
	}
	// Closures created from one source location share a code pointer;
	// Invalidate forces the rebuild the key cannot see.
	mk := func(scale int64) WeightFunc {
		return func(ts uint32) int64 { return int64(ts) * scale }
	}
	if d := Run(g, 0, Options{Scratch: sc, Weights: mk(1)}); d[2] != 10 {
		t.Fatalf("scale-1 closure: dist[2] = %d, want 10", d[2])
	}
	sc.Invalidate()
	if d := Run(g, 0, Options{Scratch: sc, Weights: mk(3)}); d[2] != 30 {
		t.Fatalf("scale-3 closure after Invalidate: dist[2] = %d, want 30", d[2])
	}
}

func TestSteadyStateAllocations(t *testing.T) {
	p := rmat.PaperParams(12, 8*(1<<12), 100, 31)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, p.NumVertices(), edgesL, true)
	sc := NewScratch()
	opt := Options{Workers: 1, Scratch: sc}
	srcs := []edge.ID{0, 17, 999, 4000}
	Run(g, srcs[0], opt) // warm the weighted view and every buffer
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		Run(g, srcs[i%len(srcs)], opt)
		i++
	})
	// The warm steady state must not allocate: the Scratch holds the
	// distance array, the cached weighted view, the bucket ring, the
	// dedup bitmaps, the per-worker outputs, and the executor closures.
	// The acceptance bound allows 2 objects/run of slack (mirroring the
	// Brandes guard); today the measured value is 0.
	if allocs > 2 {
		t.Fatalf("steady-state allocs/run = %g, want <= 2", allocs)
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	g := weightedGraph(2, false, [3]uint32{0, 1, 5})
	neg := func(ts uint32) int64 { return -1 }
	for name, run := range map[string]func(){
		"dijkstra":       func() { Dijkstra(g, 0, neg) },
		"delta-stepping": func() { DeltaStepping(1, g, 0, neg, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic for negative weight", name)
				}
			}()
			run()
		}()
	}
}

func TestEmptyGraph(t *testing.T) {
	g := csr.FromEdges(1, 3, nil, false)
	dist := DeltaStepping(2, g, 1, LabelWeights, 0)
	if dist[1] != 0 || dist[0] != Inf || dist[2] != Inf {
		t.Fatalf("isolated source distances wrong: %v", dist)
	}
}

func BenchmarkDijkstra(b *testing.B) {
	p := rmat.PaperParams(14, 8*(1<<14), 100, 5)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, p.NumVertices(), edgesL, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, 0, LabelWeights)
	}
}

// BenchmarkDeltaStepping is the cold path: a fresh Scratch per run pays
// the weighted-view build and every buffer allocation.
func BenchmarkDeltaStepping(b *testing.B) {
	p := rmat.PaperParams(14, 8*(1<<14), 100, 5)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, p.NumVertices(), edgesL, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaStepping(0, g, 0, LabelWeights, 0)
	}
}

// BenchmarkDeltaSteppingWarm is the steady state: a warm Scratch reuses
// the weighted view and kernel buffers, allocating nothing per run.
func BenchmarkDeltaSteppingWarm(b *testing.B) {
	p := rmat.PaperParams(14, 8*(1<<14), 100, 5)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, p.NumVertices(), edgesL, true)
	opt := Options{Scratch: NewScratch()}
	Run(g, 0, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, 0, opt)
	}
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

func TestScratchRecoversFromBadWeightFunc(t *testing.T) {
	// A weight-validation panic mid-rebuild must disarm the cached view:
	// a caller that recovers and reuses the scratch with the original
	// weights gets a fresh rebuild, not the half-clobbered cache.
	g := weightedGraph(4, true, [3]uint32{0, 1, 2}, [3]uint32{1, 2, 3}, [3]uint32{2, 3, 4})
	sc := NewScratch()
	want := Run(g, 0, Options{Scratch: sc})
	wantCopy := append([]int64(nil), want...)
	func() {
		defer func() { recover() }()
		Run(g, 0, Options{Scratch: sc, Weights: func(uint32) int64 { return -1 }})
		t.Fatal("bad weight function did not panic")
	}()
	got := Run(g, 0, Options{Scratch: sc})
	for v := range wantCopy {
		if got[v] != wantCopy[v] {
			t.Fatalf("post-recover dist[%d] = %d, want %d", v, got[v], wantCopy[v])
		}
	}
}

func TestViewKey(t *testing.T) {
	// LabelWeights — passed by name or reached through the nil default —
	// builds with a nil function (wcsr's direct label read); anything
	// else builds with itself under its own key.
	lk, lf := ViewKey(LabelWeights)
	if lf != nil {
		t.Fatal("LabelWeights not recognized: the view build would call out per arc")
	}
	uk, uf := ViewKey(UnitWeights)
	if uf == nil || uf(7) != 1 || uk == lk {
		t.Fatalf("UnitWeights: key %#x (label key %#x), nil func %v", uk, lk, uf == nil)
	}
}
