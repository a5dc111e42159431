package snapdyn

import (
	"sort"
	"testing"
)

// layoutManagers builds one graph per storage layout over identical
// R-MAT data and returns the managers, plain first.
func layoutManagers(t *testing.T, scale int, seed uint64) ([]SnapshotLayout, []*SnapshotManager) {
	t.Helper()
	p := PaperRMAT(scale, 8*(1<<scale), 50, seed)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		t.Fatal(err)
	}
	layouts := []SnapshotLayout{
		SnapshotPlain, SnapshotDegree, SnapshotCompressed,
	}
	mgrs := make([]*SnapshotManager, len(layouts))
	for i, l := range layouts {
		g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
		g.InsertEdges(0, edges)
		mgrs[i] = g.ManagerWithLayout(0, l)
	}
	return layouts, mgrs
}

// sortedArcs returns u's (neighbor, ts) pairs in a canonical order, so
// snapshots whose per-vertex arc order differs (compressed views sort
// their adjacency) still compare equal as multisets.
func sortedArcs(s *Snapshot, u VertexID) [][2]uint32 {
	adj, ts := s.Neighbors(u)
	arcs := make([][2]uint32, len(adj))
	for i := range adj {
		arcs[i] = [2]uint32{adj[i], ts[i]}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i][0] != arcs[j][0] {
			return arcs[i][0] < arcs[j][0]
		}
		return arcs[i][1] < arcs[j][1]
	})
	return arcs
}

// checkLayoutEquivalence asserts that every facade query on got matches
// the plain snapshot want bit-for-bit in original vertex ids.
func checkLayoutEquivalence(t *testing.T, round int, l SnapshotLayout, want, got *Snapshot) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("round %d %v: shape (%d, %d), want (%d, %d)", round, l,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	n := want.NumVertices()
	for u := 0; u < n; u++ {
		if gd, wd := got.OutDegree(VertexID(u)), want.OutDegree(VertexID(u)); gd != wd {
			t.Fatalf("round %d %v: OutDegree(%d) = %d, want %d", round, l, u, gd, wd)
		}
	}
	for _, u := range []VertexID{0, 1, 7, VertexID(n / 2), VertexID(n - 1)} {
		ga, wa := sortedArcs(got, u), sortedArcs(want, u)
		if len(ga) != len(wa) {
			t.Fatalf("round %d %v: Neighbors(%d) has %d arcs, want %d", round, l, u, len(ga), len(wa))
		}
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("round %d %v: Neighbors(%d)[%d] = %v, want %v", round, l, u, i, ga[i], wa[i])
			}
		}
	}
	for _, src := range []VertexID{0, 3, VertexID(n - 5)} {
		gres, wres := got.BFS(2, src), want.BFS(2, src)
		if gres.Reached != wres.Reached {
			t.Fatalf("round %d %v: BFS(%d) reached %d, want %d", round, l, src, gres.Reached, wres.Reached)
		}
		for v := range wres.Level {
			if gres.Level[v] != wres.Level[v] {
				t.Fatalf("round %d %v: BFS(%d) Level[%d] = %d, want %d",
					round, l, src, v, gres.Level[v], wres.Level[v])
			}
		}
		gd, wd := got.ShortestPaths(2, src, 0), want.ShortestPaths(2, src, 0)
		for v := range wd {
			if gd[v] != wd[v] {
				t.Fatalf("round %d %v: SSSP(%d) dist[%d] = %d, want %d", round, l, src, v, gd[v], wd[v])
			}
		}
		gh, wh := got.HopDistances(2, src), want.HopDistances(2, src)
		for v := range wh {
			if gh[v] != wh[v] {
				t.Fatalf("round %d %v: HopDistances(%d)[%d] = %d, want %d", round, l, src, v, gh[v], wh[v])
			}
		}
	}
	gc, wc := got.Components(2), want.Components(2)
	for v := range wc {
		if gc[v] != wc[v] {
			t.Fatalf("round %d %v: Components[%d] = %d, want %d", round, l, v, gc[v], wc[v])
		}
	}
	for _, q := range [][2]VertexID{{0, 1}, {2, VertexID(n / 2)}, {5, VertexID(n - 1)}} {
		gok, ghops := got.STConnected(2, q[0], q[1])
		wok, whops := want.STConnected(2, q[0], q[1])
		if gok != wok || ghops != whops {
			t.Fatalf("round %d %v: STConnected%v = (%v, %d), want (%v, %d)",
				round, l, q, gok, ghops, wok, whops)
		}
	}
}

// TestFacadeLayoutsBitIdentical is the facade-level acceptance check for
// the storage layouts: every query on a degree-ordered or compressed snapshot
// must be bit-identical to the plain one — in original vertex ids —
// including across incremental refreshes under churn (small rounds that
// splice deltas through the held permutation / compressed payload, and
// one large round that trips the permutation-staleness and full-rebuild
// fallbacks).
func TestFacadeLayoutsBitIdentical(t *testing.T) {
	const scale, seed = 9, 17
	layouts, mgrs := layoutManagers(t, scale, seed)
	check := func(round int) {
		t.Helper()
		want := mgrs[0].Current()
		for i := 1; i < len(mgrs); i++ {
			checkLayoutEquivalence(t, round, layouts[i], want, mgrs[i].Current())
		}
	}
	check(0)

	n := uint32(1 << scale)
	r := newTestRand(29)
	for round := 1; round <= 4; round++ {
		edits := 25
		if round == 3 {
			// Dirty well past 30% of the vertex set: the degree
			// layout must recompute its permutation and the delta
			// splicers fall back to full rebuilds.
			edits = 700
		}
		batch := make([]Update, 0, edits)
		for i := 0; i < edits; i++ {
			batch = append(batch, Update{
				Edge: Edge{U: r.next(n), V: r.next(n), T: r.next(50)},
				Op:   OpInsert,
			})
		}
		for _, sm := range mgrs {
			sm.ApplyUpdates(0, batch)
			sm.Refresh(0)
		}
		check(round)
	}
}

// TestManagerLayoutAccessors pins the layout metadata the facade
// exposes: the manager reports its configured layout, and a no-op
// refresh republishes the identical snapshot wrapper for every layout.
func TestManagerLayoutAccessors(t *testing.T) {
	layouts, mgrs := layoutManagers(t, 7, 3)
	for i, sm := range mgrs {
		if sm.Layout() != layouts[i] {
			t.Fatalf("Layout() = %v, want %v", sm.Layout(), layouts[i])
		}
		before := sm.Current()
		if after := sm.Refresh(0); after != before {
			t.Fatalf("%v: no-op Refresh republished a new snapshot wrapper", layouts[i])
		}
	}
}

// newTestRand is a tiny splitmix-style generator so the churn batches
// are deterministic without importing internal packages.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed} }

func (r *testRand) next(n uint32) uint32 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z % uint64(n))
}
