package cluster

import (
	"testing"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/xrand"
)

func rmatGraph(t *testing.T, scale int, seed uint64) (*csr.Graph, []edge.Edge) {
	t.Helper()
	n := 1 << scale
	edges, err := rmat.Generate(2, rmat.PaperParams(scale, 8*n, 1000, seed))
	if err != nil {
		t.Fatal(err)
	}
	return csr.FromEdges(2, n, edges, true), edges
}

func identity(u uint32) uint32 { return u }

// TestAggregateMatchesCompute pins the pooled aggregation against the
// one-shot Compute path: identical triangle total, qualifying-vertex
// count, and bitwise-identical mean (both fold in ascending vertex
// order).
func TestAggregateMatchesCompute(t *testing.T) {
	g, _ := rmatGraph(t, 8, 3)
	n := g.N
	want := Compute(1, g)

	s := NewScratch()
	s.ComputeCSR(1, g)
	tri, counted, avg := s.Aggregate(identity, n)
	if tri != want.TotalTriangles {
		t.Fatalf("Aggregate triangles = %d, Compute %d", tri, want.TotalTriangles)
	}
	if avg != want.GlobalAverage {
		t.Fatalf("Aggregate avg = %v, Compute %v (bitwise)", avg, want.GlobalAverage)
	}

	// counted, independently: vertices with deduplicated loop-free
	// degree at least 2.
	wantCounted := int64(0)
	seen := map[uint32]bool{}
	for u := 0; u < n; u++ {
		clear(seen)
		adj, _ := g.Neighbors(edge.ID(u))
		for _, v := range adj {
			if v != uint32(u) {
				seen[v] = true
			}
		}
		if len(seen) >= 2 {
			wantCounted++
		}
	}
	if counted != wantCounted {
		t.Fatalf("Aggregate counted = %d, want %d", counted, wantCounted)
	}
}

// TestAggregatePermutationInvariance is the property the serving
// layer's cross-layout bit-identity rests on: counting over any vertex
// relabeling of the same graph and aggregating through the matching
// original→layout map reproduces the plain answer bitwise — same
// triangle integers, same float mean, summed in the same order.
func TestAggregatePermutationInvariance(t *testing.T) {
	g, edges := rmatGraph(t, 8, 5)
	n := g.N

	s := NewScratch()
	s.ComputeCSR(1, g)
	tri, counted, avg := s.Aggregate(identity, n)

	r := xrand.New(17)
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint32n(uint32(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	relabeled := make([]edge.Edge, len(edges))
	for i, e := range edges {
		relabeled[i] = edge.Edge{U: perm[e.U], V: perm[e.V], T: e.T}
	}
	gp := csr.FromEdges(2, n, relabeled, true)

	sp := NewScratch()
	sp.ComputeCSR(1, gp)
	ptri, pcounted, pavg := sp.Aggregate(func(orig uint32) uint32 { return perm[orig] }, n)
	if ptri != tri || pcounted != counted {
		t.Fatalf("permuted counts (%d, %d), plain (%d, %d)", ptri, pcounted, tri, counted)
	}
	if pavg != avg {
		t.Fatalf("permuted avg = %v, plain %v (must be bitwise equal)", pavg, avg)
	}
}

// TestComputeVariantsMatchCSR checks all three input representations —
// plain CSR, gap-compressed stream, and a vertex-partitioned fleet view
// set — produce identical per-vertex triangle counts and aggregates, at
// the serial serving config and with parallel workers.
func TestComputeVariantsMatchCSR(t *testing.T) {
	g, edges := rmatGraph(t, 8, 7)
	n := g.N

	ref := NewScratch()
	ref.ComputeCSR(1, g)
	tri, counted, avg := ref.Aggregate(identity, n)
	refTri := append([]int64(nil), ref.Triangles()...)

	check := func(name string, s *Scratch) {
		t.Helper()
		got := s.Triangles()
		for v := range refTri {
			if got[v] != refTri[v] {
				t.Fatalf("%s: Triangles[%d] = %d, want %d", name, v, got[v], refTri[v])
			}
		}
		gtri, gcounted, gavg := s.Aggregate(identity, n)
		if gtri != tri || gcounted != counted || gavg != avg {
			t.Fatalf("%s: aggregates (%d, %d, %v), want (%d, %d, %v)", name, gtri, gcounted, gavg, tri, counted, avg)
		}
	}

	par := NewScratch()
	par.ComputeCSR(4, g)
	check("csr workers=4", par)

	cg := compress.FromCSR(2, g)
	for _, w := range []int{1, 4} {
		s := NewScratch()
		s.ComputeArcs(w, compress.Arcs{C: cg})
		check("stream", s)
	}

	// Vertex-partitioned views: all arcs out of u in views[u % p], each
	// view full-width — the fleet's owner mapping. Mirror by hand so the
	// directed arcs land with their tail's owner.
	var arcs []edge.Edge
	for _, e := range edges {
		arcs = append(arcs, e)
		if e.U != e.V {
			arcs = append(arcs, edge.Edge{U: e.V, V: e.U, T: e.T})
		}
	}
	for _, p := range []int{1, 2, 3, 4} {
		parts := make([][]edge.Edge, p)
		for _, a := range arcs {
			s := int(a.U) % p
			parts[s] = append(parts[s], a)
		}
		views := make([]*csr.Graph, p)
		for s := range views {
			views[s] = csr.FromEdges(1, n, parts[s], false)
		}
		for _, w := range []int{1, 4} {
			s := NewScratch()
			s.ComputeViews(w, views)
			check("views", s)
		}
	}
}
