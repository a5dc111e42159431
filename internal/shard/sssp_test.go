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

// TestEnsureViewsPerShard: shards refresh independently, so a moved
// snapshot pointer re-partitions that shard's weighted view alone; a
// delta change re-partitions every shard, since all must agree on band
// boundaries; distances stay exact throughout.
func TestEnsureViewsPerShard(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 29)
	ref := refSnapshot(n, ups)
	f := testFleet(n, 3, ups)
	views := f.View(nil)
	sc := NewScratch()
	check := func(ctx string, delta int64) {
		t.Helper()
		got := sc.SSSP(views, 1, sssp.LabelWeights, delta)
		want := sssp.Dijkstra(ref, 1, sssp.LabelWeights)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", ctx, v, got[v], want[v])
			}
		}
		for s := range sc.sp.views {
			if sc.sp.views[s].Delta != sc.sp.views[0].Delta {
				t.Fatalf("%s: shard %d delta %d, shard 0 delta %d", ctx, s, sc.sp.views[s].Delta, sc.sp.views[0].Delta)
			}
		}
	}
	// mark scribbles on every cached view; rebuilt reports which shards
	// a later run re-partitioned (a rebuild overwrites the scribble).
	mark := func() {
		for s := range sc.sp.views {
			sc.sp.views[s].MaxW = ^uint32(0)
		}
	}
	rebuilt := func() (out []int) {
		for s := range sc.sp.views {
			if sc.sp.views[s].MaxW != ^uint32(0) {
				out = append(out, s)
			}
		}
		return out
	}

	check("cold", 0)
	mark()
	sc.ensureViews(views, sssp.LabelWeights, 0)
	if r := rebuilt(); len(r) != 0 {
		t.Fatalf("warm hit rebuilt shards %v", r)
	}

	// Shard 1 publishes a new snapshot (same arcs, new pointer).
	g1 := *views[1]
	views[1] = &g1
	sc.ensureViews(views, sssp.LabelWeights, 0)
	if r := rebuilt(); len(r) != 1 || r[0] != 1 {
		t.Fatalf("one moved pointer rebuilt shards %v, want [1]", r)
	}
	check("after shard 1 moved", 0)

	mark()
	sc.ensureViews(views, sssp.LabelWeights, 7)
	if r := rebuilt(); len(r) != 3 {
		t.Fatalf("delta change rebuilt shards %v, want all three", r)
	}
	check("explicit delta", 7)
	check("back to the heuristic", 0)
}

// TestEnsureViewsFerriesPanic: a bad weight function panics inside a
// fleet worker; the coordinator must re-raise it on its own goroutine
// and leave no half-built view behind under a valid key.
func TestEnsureViewsFerriesPanic(t *testing.T) {
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

// BenchmarkSSSPDeltaSweep is where the default bucket width comes from:
// warm SSSP over the end-to-end benchmark's graph shape (R-MAT scale 16,
// edge factor 8, labels 1..100, undirected) on both engines — the
// single-snapshot kernel at the serving Workers = 1 and the 2-shard
// fleet — per explicit delta, beside delta=auto (wcsr.HeuristicDelta).
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
