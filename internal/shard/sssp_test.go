package shard

import (
	"fmt"
	"testing"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/sssp"
	"snapdyn/internal/stream"
)

// TestFleetDeltaCache: one delta is chosen per pinned view set and
// request, shared by every shard so they agree on band boundaries, and
// distances stay exact as shards move and requests change.
func TestFleetDeltaCache(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 29)
	ref := refSnapshot(n, ups)
	f := testFleet(n, 3, ups)
	views := f.View(nil)
	sc := NewScratch()
	check := func(ctx string, delta, want int64) {
		t.Helper()
		got := sc.SSSP(views, 1, sssp.LabelWeights, delta)
		for v, d := range sssp.Dijkstra(ref, 1, sssp.LabelWeights) {
			if got[v] != d {
				t.Fatalf("%s: dist[%d] = %d, want %d", ctx, v, got[v], d)
			}
		}
		if d := sc.sp.deltas.Delta(); d != want {
			t.Fatalf("%s: delta %d, want %d", ctx, d, want)
		}
	}
	auto := sssp.HeuristicDelta(nil, n, views...)
	check("cold", 0, auto)
	check("warm", 0, auto)

	// Shard 1 publishes a new snapshot (same arcs, new pointer).
	g1 := *views[1]
	views[1] = &g1
	check("after shard 1 moved", 0, auto)
	check("explicit delta", 7, 7)
	check("back to the heuristic", 0, auto)
}

// TestFleetSSSPBadWeightPanicsOnCaller: a bad weight function is met
// inside a relaxation phase; the panic must surface on the coordinator's
// goroutine, and the scratch must serve the next query exactly.
func TestFleetSSSPBadWeightPanicsOnCaller(t *testing.T) {
	views := []*csr.Graph{
		csr.FromEdges(1, 4, []edge.Edge{{U: 0, V: 1, T: 3}, {U: 2, V: 3, T: 4}}, false),
		csr.FromEdges(1, 4, []edge.Edge{{U: 1, V: 2, T: 5}}, false),
	}
	sc := NewScratch()
	want := append([]int64(nil), sc.SSSP(views, 0, sssp.LabelWeights, 0)...)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative weights did not panic on the coordinator")
			}
		}()
		sc.SSSP(views, 0, func(uint32) int64 { return -1 }, 0)
	}()
	got := sc.SSSP(views, 0, sssp.LabelWeights, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("after recovered panic: dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// coldViewSets returns two view sets of one p-shard fleet holding the
// scale-14 R-MAT graph (edge factor ef, labels 1..100, undirected): the
// same arcs under distinct shard snapshot pointers, as a pooled scratch
// sees them across publications.
func coldViewSets(tb testing.TB, p, ef int) (int, [2][]*csr.Graph) {
	const scale = 14
	n := 1 << scale
	edges, err := rmat.Generate(2, rmat.PaperParams(scale, ef*n, 100, 3))
	if err != nil {
		tb.Fatal(err)
	}
	views := testFleet(n, p, stream.Mirror(stream.Inserts(edges))).View(nil)
	var sets [2][]*csr.Graph
	for i := range sets {
		for _, v := range views {
			g := *v
			sets[i] = append(sets[i], &g)
		}
	}
	return n, sets
}

// TestFleetSSSPFootprint: a P=2 fleet scratch alternating two pinned
// view sets retains O(n) bytes of SSSP state and no per-arc array. At
// mean degree 64 one uint32 per arc would be 256 B/vertex.
func TestFleetSSSPFootprint(t *testing.T) {
	n, sets := coldViewSets(t, 2, 32)
	sc := NewScratch()
	for i, s := range []uint32{0, 17, 999, 4000, 0, 17, 999, 4000} {
		sc.SSSP(sets[i&1], s, sssp.LabelWeights, 0)
	}
	m := sets[0][0].NumEdges() + sets[0][1].NumEdges()
	size := sc.sp.bands.SizeBytes()
	t.Logf("n=%d m=%d: fleet SSSP state holds %d B (%.1f B/vertex)", n, m, size, float64(size)/float64(n))
	if size > 88*int64(n) || size >= 4*m {
		t.Fatalf("fleet SSSP state holds %d B: want <= 88 B/vertex and under one uint32 per arc (%d B)", size, 4*m)
	}
}

// BenchmarkFleetSSSPColdViews is BenchmarkSSSPColdSnapshot's fleet
// analogue: every query lands on a newly pinned view set, alternating
// two, so a view-set change must cost the relaxation nothing per arc.
// At every P, after the first lap, a lap must not allocate.
func BenchmarkFleetSSSPColdViews(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			_, sets := coldViewSets(b, p, 8)
			sc := NewScratch()
			const src = 3
			lap := func() {
				sc.SSSP(sets[0], src, sssp.LabelWeights, 0)
				sc.SSSP(sets[1], src, sssp.LabelWeights, 0)
			}
			lap() // size the buffers and the bucket ring
			if allocs := testing.AllocsPerRun(2, lap); allocs != 0 {
				b.Fatalf("cold-view fleet SSSP allocates %g objects per lap, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.SSSP(sets[i&1], src, sssp.LabelWeights, 0)
			}
		})
	}
}

// BenchmarkSSSPDeltaSweep is where the default bucket width comes from:
// warm SSSP over the end-to-end benchmark's graph shape (R-MAT scale 16,
// edge factor 8, labels 1..100, undirected) on both engines — the
// single-snapshot kernel at the serving Workers = 1 and the 2-shard
// fleet — per explicit delta, beside delta=auto (sssp.HeuristicDelta).
// The default must sit on the flat part of both curves; README "SSSP:
// what a refresh costs, and choosing delta" quotes this sweep.
func BenchmarkSSSPDeltaSweep(b *testing.B) {
	const scale = 16
	n := 1 << scale
	edges, err := rmat.Generate(2, rmat.PaperParams(scale, 8*n, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	ups := stream.Mirror(stream.Inserts(edges))
	ref := refSnapshot(n, ups)
	views := testFleet(n, 2, ups).View(nil)
	var srcs []uint32
	for u := uint32(0); len(srcs) < 16; u += 97 {
		if ref.Degree(u) > 0 {
			srcs = append(srcs, u)
		}
	}
	for _, delta := range []int64{0, 1, 3, 6, 12, 25, 50, 100} {
		name := fmt.Sprintf("delta=%d", delta)
		if delta == 0 {
			name = "delta=auto"
		}
		b.Run("single/"+name, func(b *testing.B) {
			opt := sssp.Options{Workers: 1, Delta: delta, Scratch: sssp.NewScratch()}
			for _, s := range srcs { // warm the view, buffers and ring
				sssp.Run(ref, s, opt)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sssp.Run(ref, srcs[i%len(srcs)], opt)
			}
		})
		b.Run("fleet2/"+name, func(b *testing.B) {
			sc := NewScratch()
			for _, s := range srcs {
				sc.SSSP(views, s, sssp.LabelWeights, delta)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.SSSP(views, srcs[i%len(srcs)], sssp.LabelWeights, delta)
			}
		})
	}
}
