package reorder

import (
	"testing"

	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/xrand"
)

func TestApplyIntoMatchesApply(t *testing.T) {
	g := sampleCSR(t, 9, 17)
	perm := ByDegree(g)
	want := Apply(0, g, perm)
	inv := perm.Inverse()
	var out csr.Graph
	for _, workers := range []int{1, 4} {
		got := ApplyInto(workers, g, perm, inv, &out)
		if got != &out {
			t.Fatal("ApplyInto did not return the supplied graph")
		}
		if got.N != want.N || got.NumEdges() != want.NumEdges() {
			t.Fatalf("shape %d/%d, want %d/%d", got.N, got.NumEdges(), want.N, want.NumEdges())
		}
		for i := range want.Offsets {
			if got.Offsets[i] != want.Offsets[i] {
				t.Fatalf("workers=%d: offsets diverge at %d", workers, i)
			}
		}
		for i := range want.Adj {
			if got.Adj[i] != want.Adj[i] || got.TS[i] != want.TS[i] {
				t.Fatalf("workers=%d: arc %d diverges", workers, i)
			}
		}
	}
}

func TestApplyIntoSteadyStateAllocations(t *testing.T) {
	g := sampleCSR(t, 10, 19)
	perm := ByDegree(g)
	inv := perm.Inverse()
	out := &csr.Graph{}
	ApplyInto(1, g, perm, inv, out) // warm the buffers
	allocs := testing.AllocsPerRun(10, func() {
		ApplyInto(1, g, perm, inv, out)
	})
	if allocs > 0 {
		t.Fatalf("warm serial ApplyInto allocs/run = %g, want 0", allocs)
	}
}

// permutedStore builds a Tracked store with random edges and returns it
// with its mirror edge list applied.
func permutedStore(t testing.TB, n int, arcs int, seed uint64) *dyngraph.Tracked {
	t.Helper()
	s := dyngraph.NewTracked(dyngraph.NewHybrid(n, 2*arcs, 0, 1))
	r := xrand.New(seed)
	for i := 0; i < arcs; i++ {
		u, v := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
		ts := r.Uint32n(100)
		s.Insert(u, v, ts)
		s.Insert(v, u, ts)
	}
	return s
}

func TestFromStorePermutedMatchesApply(t *testing.T) {
	s := permutedStore(t, 500, 2000, 23)
	s.Flush(nil)
	plain := csr.FromStore(2, s)
	perm := ByDegree(plain)
	inv := perm.Inverse()
	want := Apply(2, plain, perm)
	got := FromStorePermuted(2, s, perm, inv)
	assertCSREqual(t, "from-store-permuted", got, want)
}

func TestRefreshPermutedMatchesFullRebuild(t *testing.T) {
	const n = 600
	s := permutedStore(t, n, 3000, 29)
	s.Flush(nil)
	plain := csr.FromStore(2, s)
	perm := ByDegree(plain)
	inv := perm.Inverse()
	base := FromStorePermuted(2, s, perm, inv)
	r := xrand.New(31)
	for round := 0; round < 5; round++ {
		// Churn a small dirty set: inserts and deletes.
		for i := 0; i < 20; i++ {
			u, v := r.Uint32n(n), r.Uint32n(n)
			ts := r.Uint32n(100)
			s.Insert(u, v, ts)
			s.Insert(v, u, ts)
		}
		dirty := s.Flush(nil)
		got := RefreshPermuted(2, base, s, dirty, perm, inv)
		want := FromStorePermuted(2, s, perm, inv)
		assertCSREqual(t, "refresh-permuted", got, want)
		base = got
	}
	// Empty dirty: base is returned as-is.
	if RefreshPermuted(2, base, s, nil, perm, inv) != base {
		t.Fatal("empty dirty set should return base unchanged")
	}
	// High churn falls back to the full permuted rebuild, same answer.
	dirty := make([]uint32, n)
	for i := range dirty {
		dirty[i] = uint32(i)
	}
	got := RefreshPermuted(2, base, s, dirty, perm, inv)
	assertCSREqual(t, "refresh-permuted-fallback", got, FromStorePermuted(2, s, perm, inv))
	// Stale permutation (vertex count mismatch) is refused.
	if RefreshPermuted(2, base, s, nil, perm[:n-1], inv[:n-1]) != nil {
		t.Fatal("stale permutation must return nil")
	}
}

func assertCSREqual(t *testing.T, name string, got, want *csr.Graph) {
	t.Helper()
	if got.N != want.N || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: shape %d/%d, want %d/%d", name, got.N, got.NumEdges(), want.N, want.NumEdges())
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: offsets diverge at %d: %d != %d", name, i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] || got.TS[i] != want.TS[i] {
			t.Fatalf("%s: arc %d diverges: (%d,%d) != (%d,%d)",
				name, i, got.Adj[i], got.TS[i], want.Adj[i], want.TS[i])
		}
	}
}
