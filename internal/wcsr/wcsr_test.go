package wcsr

import (
	"fmt"
	"sort"
	"testing"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
)

func rmatGraph(t *testing.T, scale, ef int, timeMax uint32, seed uint64) *csr.Graph {
	t.Helper()
	p := rmat.PaperParams(scale, ef*(1<<scale), timeMax, seed)
	edges, err := rmat.Generate(0, p)
	if err != nil {
		t.Fatal(err)
	}
	return csr.FromEdges(0, p.NumVertices(), edges, true)
}

// checkView verifies the structural invariants of a built view against
// its source: the partition point, the weight mapping, and arc-set
// preservation per vertex.
func checkView(t *testing.T, g *csr.Graph, wg *Graph, wf WeightFunc) {
	t.Helper()
	if wg.N != g.N || len(wg.Adj) != len(g.Adj) || len(wg.W) != len(g.Adj) {
		t.Fatalf("shape mismatch: N=%d/%d m=%d/%d", wg.N, g.N, len(wg.Adj), len(g.Adj))
	}
	var maxW uint32
	for u := 0; u < g.N; u++ {
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		le := wg.LightEnd[u]
		if le < lo || le > hi {
			t.Fatalf("vertex %d: LightEnd %d outside [%d,%d]", u, le, lo, hi)
		}
		for p := lo; p < hi; p++ {
			if w := int64(wg.W[p]); (w <= wg.Delta) != (p < le) {
				t.Fatalf("vertex %d arc %d: weight %d on wrong side of LightEnd (delta %d)", u, p, w, wg.Delta)
			}
			if wg.W[p] > maxW {
				maxW = wg.W[p]
			}
		}
		// Same multiset of (neighbor, weight) pairs as wf over the source.
		want := make([][2]uint64, 0, hi-lo)
		got := make([][2]uint64, 0, hi-lo)
		for p := lo; p < hi; p++ {
			want = append(want, [2]uint64{uint64(g.Adj[p]), uint64(wf(g.TS[p]))})
			got = append(got, [2]uint64{uint64(wg.Adj[p]), uint64(wg.W[p])})
		}
		less := func(s [][2]uint64) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i][0] != s[j][0] {
					return s[i][0] < s[j][0]
				}
				return s[i][1] < s[j][1]
			}
		}
		sort.Slice(want, less(want))
		sort.Slice(got, less(got))
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("vertex %d: arc multiset diverged at %d: %v vs %v", u, i, got[i], want[i])
			}
		}
	}
	if maxW != wg.MaxW {
		t.Fatalf("MaxW = %d, want %d", wg.MaxW, maxW)
	}
}

func TestBuildPartition(t *testing.T) {
	g := rmatGraph(t, 9, 8, 100, 11)
	for _, delta := range []int64{1, 17, 50, 1000, 0} {
		for _, workers := range []int{1, 4} {
			wg := Build(workers, g, func(ts uint32) int64 { return int64(ts) }, delta)
			if delta > 0 && wg.Delta != delta {
				t.Fatalf("Delta = %d, want %d", wg.Delta, delta)
			}
			if wg.Delta < 1 {
				t.Fatalf("Delta = %d, want >= 1", wg.Delta)
			}
			checkView(t, g, wg, func(ts uint32) int64 { return int64(ts) })
		}
	}
}

func TestRebuildReusesArrays(t *testing.T) {
	g := rmatGraph(t, 9, 8, 100, 12)
	wf := func(ts uint32) int64 { return int64(ts) }
	wg := Build(1, g, wf, 10)
	adj0, w0 := &wg.Adj[0], &wg.W[0]
	wg.Rebuild(1, g, wf, 25)
	if &wg.Adj[0] != adj0 || &wg.W[0] != w0 {
		t.Fatal("Rebuild reallocated same-size arrays")
	}
	checkView(t, g, wg, wf)
}

func TestBuildEmptyAndIsolated(t *testing.T) {
	g := csr.FromEdges(1, 4, nil, false)
	wg := Build(1, g, func(uint32) int64 { return 1 }, 0)
	if wg.Delta != 1 || wg.MaxW != 0 || wg.NumEdges() != 0 {
		t.Fatalf("empty view: delta=%d maxW=%d m=%d", wg.Delta, wg.MaxW, wg.NumEdges())
	}
}

func TestBuildValidatesWeights(t *testing.T) {
	g := csr.FromEdges(1, 2, []edge.Edge{{U: 0, V: 1, T: 5}}, false)
	for _, wf := range []WeightFunc{
		func(uint32) int64 { return -1 },
		func(uint32) int64 { return 1 << 40 },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for out-of-range weight")
				}
			}()
			Build(1, g, wf, 0)
		}()
	}
}

// labelGraph is a CSR over n vertices whose arcs (all out of vertex 0)
// carry the given labels: the HeuristicDelta fixtures.
func labelGraph(n int, labels []uint32) *csr.Graph {
	es := make([]edge.Edge, len(labels))
	for i, ts := range labels {
		es[i] = edge.Edge{U: 0, V: 1, T: ts}
	}
	return csr.FromEdges(1, n, es, false)
}

func TestHeuristicDelta(t *testing.T) {
	label := func(ts uint32) int64 { return int64(ts) }
	if d := HeuristicDelta(label, 4); d != 1 {
		t.Fatalf("no graphs: %d, want 1", d)
	}
	if d := HeuristicDelta(label, 4, csr.FromEdges(1, 4, nil, false)); d != 1 {
		t.Fatalf("empty: %d, want 1", d)
	}
	if d := HeuristicDelta(label, 4, labelGraph(4, []uint32{0, 0, 0})); d != 1 {
		t.Fatalf("all-zero: %d, want 1 (floor)", d)
	}
	// Mean degree <= 1 leaves the degree term at 1: mean weight / 2.
	if d := HeuristicDelta(label, 3, labelGraph(3, []uint32{10, 20, 30})); d != 10 {
		t.Fatalf("sparse: %d, want 10", d)
	}
	// Mean degree 16 divides by 2*sqrt(16) = 8.
	many := make([]uint32, 64)
	for i := range many {
		many[i] = 80
	}
	if d := HeuristicDelta(label, 4, labelGraph(4, many)); d != 10 {
		t.Fatalf("degree 16: %d, want 10", d)
	}
	// Several graphs (a fleet's shard views) combine arc-weighted: 48
	// arcs at 80 and 16 at 16 average 64 over 4 vertices.
	if d := HeuristicDelta(label, 4, labelGraph(4, many[:48]), labelGraph(4, []uint32{
		16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16})); d != 8 {
		t.Fatalf("two graphs: %d, want 8", d)
	}
	// A weight function returning garbage must not push delta below 1.
	if d := HeuristicDelta(func(uint32) int64 { return -7 }, 4, labelGraph(4, many)); d != 1 {
		t.Fatalf("negative weights: %d, want 1", d)
	}
	// Deterministic, and a large arc set is sampled at exactly the fixed
	// stride from arc 0.
	big := make([]uint32, 1<<18)
	for i := range big {
		big[i] = uint32(i % 97)
	}
	g := labelGraph(1<<18, big)
	d1, d2 := HeuristicDelta(label, g.N, g), HeuristicDelta(label, g.N, g)
	if d1 != d2 {
		t.Fatalf("nondeterministic: %d vs %d", d1, d2)
	}
	stride := len(big) / heuristicSample
	var sum, count int64
	for i := 0; i < len(g.TS); i += stride {
		sum += int64(g.TS[i])
		count++
	}
	if want := sum / count / 2; d1 != want {
		t.Fatalf("stride sample: %d, want %d", d1, want)
	}
}

func TestBuildValidatesWeightsParallel(t *testing.T) {
	// The out-of-range panic must surface on the caller's goroutine even
	// when the materialization pass fans out to workers, so callers can
	// recover it.
	g := rmatGraph(t, 8, 6, 100, 13)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative weight at workers=4")
		}
	}()
	Build(4, g, func(uint32) int64 { return -1 }, 0)
}

// TestPartitionLayout pins the invariant the kernel relies on — a
// partition, not an order — and that the layout is a pure function of
// the source span and delta: identical for every worker count, light
// arcs in source order, heavy arcs in reverse source order.
func TestPartitionLayout(t *testing.T) {
	wf := func(ts uint32) int64 { return int64(ts) }
	g := rmatGraph(t, 9, 8, 100, 21)
	for _, delta := range []int64{13, 0} {
		ref := Build(1, g, wf, delta)
		checkView(t, g, ref, wf)
		for _, workers := range []int{2, 8} {
			wg := Build(workers, g, wf, delta)
			checkView(t, g, wg, wf)
			if wg.Delta != ref.Delta || wg.MaxW != ref.MaxW {
				t.Fatalf("workers=%d: (delta, maxW) = (%d, %d), want (%d, %d)",
					workers, wg.Delta, wg.MaxW, ref.Delta, ref.MaxW)
			}
			for p := range ref.Adj {
				if wg.Adj[p] != ref.Adj[p] || wg.W[p] != ref.W[p] {
					t.Fatalf("workers=%d: layout diverges at arc %d: (%d,%d) vs (%d,%d)",
						workers, p, wg.Adj[p], wg.W[p], ref.Adj[p], ref.W[p])
				}
			}
			for u := range ref.LightEnd {
				if wg.LightEnd[u] != ref.LightEnd[u] {
					t.Fatalf("workers=%d: LightEnd[%d] = %d, want %d", workers, u, wg.LightEnd[u], ref.LightEnd[u])
				}
			}
		}
	}
	// Degenerate spans: empty, all light, all heavy, and a weight equal
	// to delta (light). Vertex 0 is out-of-order on purpose.
	g = csr.FromEdges(1, 5, []edge.Edge{
		{U: 0, V: 3, T: 9}, {U: 0, V: 1, T: 7}, {U: 0, V: 2, T: 8}, {U: 0, V: 4, T: 2},
		{U: 2, V: 0, T: 1}, {U: 2, V: 1, T: 7},
		{U: 3, V: 0, T: 8}, {U: 3, V: 1, T: 100},
	}, false)
	wg := Build(1, g, wf, 7)
	checkView(t, g, wg, wf)
	// The source span of vertex 0, whatever order the CSR build left it in.
	var light, heavy []uint32
	for p := g.Offsets[0]; p < g.Offsets[1]; p++ {
		if g.TS[p] <= 7 {
			light = append(light, g.Adj[p])
		} else {
			heavy = append([]uint32{g.Adj[p]}, heavy...)
		}
	}
	for i, want := range append(light, heavy...) {
		if wg.Adj[i] != want {
			t.Fatalf("vertex 0 layout %v, want light %v then reversed heavy %v", wg.Adj[:4], light, heavy)
		}
	}
	if got := wg.LightEnd[1] - g.Offsets[1]; got != 0 {
		t.Fatalf("empty span: %d light arcs", got)
	}
	if got := wg.LightEnd[2] - g.Offsets[2]; got != 2 {
		t.Fatalf("all-light span: %d light arcs, want 2", got)
	}
	if got := wg.LightEnd[3] - g.Offsets[3]; got != 0 {
		t.Fatalf("all-heavy span: %d light arcs, want 0", got)
	}
}

// TestRebuildRepartitions covers what Retarget used to: moving one view
// to another delta (or to the heuristic) over the same snapshot is a
// Rebuild and lands on the same partition as a fresh Build.
func TestRebuildRepartitions(t *testing.T) {
	wf := func(ts uint32) int64 { return int64(ts) }
	g := rmatGraph(t, 9, 8, 100, 23)
	wg := Build(1, g, wf, 5)
	for _, delta := range []int64{1, 17, 50, 99, 1000, 0} {
		for _, workers := range []int{1, 4} {
			wg.Rebuild(workers, g, wf, delta)
			fresh := Build(1, g, wf, delta)
			if wg.Delta != fresh.Delta || wg.Delta < 1 {
				t.Fatalf("delta %d: Delta = %d, fresh build %d", delta, wg.Delta, fresh.Delta)
			}
			for u := 0; u < g.N; u++ {
				if wg.LightEnd[u] != fresh.LightEnd[u] {
					t.Fatalf("delta %d: LightEnd[%d] = %d, want %d",
						delta, u, wg.LightEnd[u], fresh.LightEnd[u])
				}
			}
			checkView(t, g, wg, wf)
		}
	}
}

// TestRebuildHeadroom: a snapshot that grew by a few arcs must reuse
// the arrays of the view built for its predecessor.
func TestRebuildHeadroom(t *testing.T) {
	wf := func(ts uint32) int64 { return int64(ts) }
	es := make([]edge.Edge, 0, 1100)
	for i := 0; i < 1100; i++ {
		es = append(es, edge.Edge{U: uint32(i % 64), V: uint32((i * 7) % 64), T: uint32(1 + i%50)})
	}
	small := csr.FromEdges(1, 64, es[:1000], false)
	grown := csr.FromEdges(1, 64, es, false)
	wg := Build(1, small, wf, 10)
	adj0, w0 := &wg.Adj[0], &wg.W[0]
	wg.Rebuild(1, grown, wf, 10)
	if &wg.Adj[0] != adj0 || &wg.W[0] != w0 {
		t.Fatal("Rebuild reallocated for a 10% larger snapshot")
	}
	checkView(t, grown, wg, wf)
	if allocs := testing.AllocsPerRun(5, func() {
		wg.Rebuild(1, small, wf, 0)
		wg.Rebuild(1, grown, wf, 0)
	}); allocs != 0 {
		t.Fatalf("single-worker Rebuild allocates %g objects per pair", allocs)
	}
}

// BenchmarkRebuild is the per-snapshot cost a pooled SSSP scratch pays:
// one single-worker partition pass over a million arcs, at a delta that
// splits the spans unpredictably (half light) and at the default.
func BenchmarkRebuild(b *testing.B) {
	p := rmat.PaperParams(16, 8<<16, 100, 1)
	edges, err := rmat.Generate(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := csr.FromEdges(0, p.NumVertices(), edges, true)
	wf := func(ts uint32) int64 { return int64(ts) }
	for _, delta := range []int64{50, 0, -1} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			wf := wf
			if delta < 0 {
				wf = nil
			}
			wg := Build(1, g, wf, delta)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wg.Rebuild(1, g, wf, delta)
			}
		})
	}
}
