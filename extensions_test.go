package snapdyn

import (
	"testing"
)

func buildSmall(t *testing.T) (*Graph, *Snapshot) {
	t.Helper()
	p := PaperRMAT(10, 8<<10, 100, 21)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		t.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	return g, g.Snapshot(0)
}

func TestCompressedSnapshotRoundTrip(t *testing.T) {
	_, snap := buildSmall(t)
	cs := snap.Compress(0)
	if cs.NumVertices() != snap.NumVertices() || cs.NumEdges() != snap.NumEdges() {
		t.Fatal("size mismatch")
	}
	if cs.CompressionRatio() <= 1 {
		t.Fatalf("compression ratio %.2f <= 1", cs.CompressionRatio())
	}
	if cs.SizeBytes() >= snap.NumEdges()*8 {
		t.Fatal("no space saved")
	}
	back := cs.Decompress(0)
	for u := 0; u < snap.NumVertices(); u++ {
		if back.OutDegree(uint32(u)) != snap.OutDegree(uint32(u)) {
			t.Fatalf("degree(%d) changed in round trip", u)
		}
		if int64(cs.OutDegree(uint32(u))) != snap.OutDegree(uint32(u)) {
			t.Fatalf("compressed degree(%d) wrong", u)
		}
	}
}

func TestCompressedBFSMatches(t *testing.T) {
	_, snap := buildSmall(t)
	cs := snap.Compress(0)
	src := snap.SampleSources(1, 4)[0]
	want := snap.BFS(0, src)
	level, reached := cs.BFS(0, src)
	if reached != want.Reached {
		t.Fatalf("reached %d, want %d", reached, want.Reached)
	}
	for v := range level {
		if level[v] != want.Level[v] {
			t.Fatalf("level[%d] = %d, want %d", v, level[v], want.Level[v])
		}
	}
}

func TestCompressedNeighborsCallback(t *testing.T) {
	_, snap := buildSmall(t)
	cs := snap.Compress(0)
	u := snap.SampleSources(1, 9)[0]
	count := 0
	cs.Neighbors(u, func(v VertexID, t32 uint32) bool {
		count++
		return true
	})
	if int64(count) != snap.OutDegree(u) {
		t.Fatalf("decoded %d arcs, want %d", count, snap.OutDegree(u))
	}
}

func TestRelabelPreservesKernels(t *testing.T) {
	_, snap := buildSmall(t)
	perm := snap.ReorderByDegree()
	if !perm.Valid() {
		t.Fatal("invalid degree permutation")
	}
	rg := snap.Relabel(0, perm)
	if rg.NumEdges() != snap.NumEdges() {
		t.Fatal("relabel changed arc count")
	}
	if rg.ComponentCount(0) != snap.ComponentCount(0) {
		t.Fatal("relabel changed component structure")
	}
}

func TestDynamicConnectivityFacade(t *testing.T) {
	d := NewDynamicConnectivity(10)
	d.InsertEdge(0, 1, 1)
	d.InsertEdge(1, 2, 2)
	d.InsertEdge(3, 4, 3)
	if !d.Connected(0, 2) || d.Connected(0, 3) {
		t.Fatal("connectivity wrong")
	}
	if d.NumEdges() != 3 {
		t.Fatalf("m = %d", d.NumEdges())
	}
	// 10 - 5 grouped + 2 groups = 7 components.
	if d.ComponentCount() != 7 {
		t.Fatalf("components = %d", d.ComponentCount())
	}
	if !d.DeleteEdge(1, 2) || d.Connected(0, 2) {
		t.Fatal("delete/split wrong")
	}
	if d.DeleteEdge(7, 8) {
		t.Fatal("absent delete succeeded")
	}
}

func TestDynamicConnectivityTracksSnapshots(t *testing.T) {
	// The incremental index must agree with snapshot-based connectivity
	// after a batch of updates.
	p := PaperRMAT(9, 5<<9, 50, 33)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumVertices()
	d := NewDynamicConnectivity(n)
	g := New(n, WithExpectedEdges(2*len(edges)), Undirected())
	for _, e := range edges {
		d.InsertEdge(e.U, e.V, e.T)
		g.InsertEdge(e.U, e.V, e.T)
	}
	for _, e := range edges[:len(edges)/4] {
		d.DeleteEdge(e.U, e.V)
		g.DeleteEdge(e.U, e.V)
	}
	snap := g.Snapshot(0)
	conn := snap.Connectivity(0)
	srcs := snap.SampleSources(24, 8)
	for _, u := range srcs {
		for _, v := range srcs {
			if d.Connected(u, v) != conn.Connected(u, v) {
				t.Fatalf("incremental and snapshot connectivity disagree on (%d,%d)", u, v)
			}
		}
	}
}

func TestClosenessFacade(t *testing.T) {
	_, snap := buildSmall(t)
	srcs := snap.SampleSources(8, 5)
	scores := snap.Closeness(0, srcs)
	if len(scores) != len(srcs) {
		t.Fatal("length mismatch")
	}
	nonzero := false
	for _, s := range scores {
		if s.Classic < 0 || s.Harmonic < 0 {
			t.Fatal("negative closeness")
		}
		if s.Harmonic > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("all closeness scores zero")
	}
}

func TestStressFacade(t *testing.T) {
	_, snap := buildSmall(t)
	srcs := snap.SampleSources(16, 6)
	stress := snap.Stress(0, BCOptions{Sources: srcs})
	bc := snap.Betweenness(0, BCOptions{Sources: srcs})
	if len(stress) != snap.NumVertices() {
		t.Fatal("length wrong")
	}
	// Stress dominates betweenness pointwise (counts vs fractions).
	for v := range stress {
		if stress[v]+1e-9 < bc[v] {
			t.Fatalf("stress[%d] = %v < bc %v", v, stress[v], bc[v])
		}
	}
}
