package reorder

import (
	"sort"
	"testing"
	"testing/quick"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/traversal"
	"snapdyn/internal/xrand"
)

func sampleCSR(t testing.TB, scale int, seed uint64) *csr.Graph {
	t.Helper()
	p := rmat.PaperParams(scale, 8<<scale, 50, seed)
	edges, err := rmat.Generate(0, p)
	if err != nil {
		t.Fatal(err)
	}
	return csr.FromEdges(0, p.NumVertices(), edges, true)
}

func TestIdentity(t *testing.T) {
	p := Identity(5)
	if !p.Valid() {
		t.Fatal("identity invalid")
	}
	inv := p.Inverse()
	for i := range p {
		if p[i] != uint32(i) || inv[i] != uint32(i) {
			t.Fatal("identity wrong")
		}
	}
}

func TestValidRejects(t *testing.T) {
	if (Permutation{0, 0}).Valid() {
		t.Fatal("duplicate accepted")
	}
	if (Permutation{0, 5}).Valid() {
		t.Fatal("out of range accepted")
	}
	if !(Permutation{1, 0, 2}).Valid() {
		t.Fatal("valid rejected")
	}
}

func TestInverseProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + int(r.Uint32n(50))
		idx := make([]int, n)
		r.Perm(idx)
		p := make(Permutation, n)
		for i, v := range idx {
			p[i] = uint32(v)
		}
		inv := p.Inverse()
		for i := range p {
			if inv[p[i]] != uint32(i) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestByDegreeHubsFirst(t *testing.T) {
	g := sampleCSR(t, 9, 3)
	perm := ByDegree(g)
	if !perm.Valid() {
		t.Fatal("invalid permutation")
	}
	rg := Apply(0, g, perm)
	// New ids must be in non-increasing degree order.
	for u := 1; u < rg.N; u++ {
		if rg.Degree(edge.ID(u)) > rg.Degree(edge.ID(u-1)) {
			t.Fatalf("degree order violated at %d", u)
		}
	}
}

func TestApplyPreservesStructure(t *testing.T) {
	g := sampleCSR(t, 9, 7)
	perm := ByDegree(g)
	rg := Apply(0, g, perm)
	if rg.NumEdges() != g.NumEdges() {
		t.Fatalf("arc count changed: %d != %d", rg.NumEdges(), g.NumEdges())
	}
	// Each old vertex's adjacency must map exactly onto the new one.
	for u := 0; u < g.N; u++ {
		adj, ts := g.Neighbors(edge.ID(u))
		radj, rts := rg.Neighbors(perm[u])
		if len(adj) != len(radj) {
			t.Fatalf("vertex %d degree changed", u)
		}
		type arc struct{ v, t uint32 }
		want := make([]arc, len(adj))
		got := make([]arc, len(adj))
		for i := range adj {
			want[i] = arc{perm[adj[i]], ts[i]}
			got[i] = arc{radj[i], rts[i]}
		}
		less := func(s []arc) func(a, b int) bool {
			return func(a, b int) bool {
				if s[a].v != s[b].v {
					return s[a].v < s[b].v
				}
				return s[a].t < s[b].t
			}
		}
		sort.Slice(want, less(want))
		sort.Slice(got, less(got))
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("vertex %d arc %d: %v != %v", u, i, got[i], want[i])
			}
		}
	}
}

func TestReorderingPreservesBFSDistances(t *testing.T) {
	g := sampleCSR(t, 10, 9)
	perm := ByDegree(g)
	rg := Apply(0, g, perm)
	src := edge.ID(42)
	want := traversal.BFS(0, g, src)
	got := traversal.BFS(0, rg, perm[src])
	if got.Reached != want.Reached {
		t.Fatalf("reached %d != %d", got.Reached, want.Reached)
	}
	for v := 0; v < g.N; v++ {
		if got.Level[perm[v]] != want.Level[v] {
			t.Fatalf("distance to %d changed under relabeling", v)
		}
	}
}
