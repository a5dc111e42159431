package dynconn

import (
	"testing"
	"testing/quick"

	"snapdyn/internal/rmat"
	"snapdyn/internal/xrand"
)

// naive is a recompute-from-scratch connectivity oracle.
type naive struct {
	n   int
	adj map[[2]uint32]int // undirected edge multiset
}

func newNaive(n int) *naive {
	return &naive{n: n, adj: map[[2]uint32]int{}}
}

func key(u, v uint32) [2]uint32 {
	if u > v {
		u, v = v, u
	}
	return [2]uint32{u, v}
}

func (o *naive) insert(u, v uint32) { o.adj[key(u, v)]++ }

func (o *naive) delete(u, v uint32) bool {
	k := key(u, v)
	if o.adj[k] == 0 {
		return false
	}
	o.adj[k]--
	if o.adj[k] == 0 {
		delete(o.adj, k)
	}
	return true
}

func (o *naive) connected(u, v uint32) bool {
	if u == v {
		return true
	}
	nbr := map[uint32][]uint32{}
	for k := range o.adj {
		nbr[k[0]] = append(nbr[k[0]], k[1])
		nbr[k[1]] = append(nbr[k[1]], k[0])
	}
	seen := map[uint32]bool{u: true}
	queue := []uint32{u}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w == v {
			return true
		}
		for _, x := range nbr[w] {
			if !seen[x] {
				seen[x] = true
				queue = append(queue, x)
			}
		}
	}
	return false
}

func (o *naive) components() int {
	seen := map[uint32]bool{}
	nbr := map[uint32][]uint32{}
	for k := range o.adj {
		nbr[k[0]] = append(nbr[k[0]], k[1])
		nbr[k[1]] = append(nbr[k[1]], k[0])
	}
	c := 0
	for v := uint32(0); v < uint32(o.n); v++ {
		if seen[v] {
			continue
		}
		c++
		queue := []uint32{v}
		seen[v] = true
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			for _, x := range nbr[w] {
				if !seen[x] {
					seen[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	return c
}

func TestInsertJoinsComponents(t *testing.T) {
	x := New(6)
	if x.Connected(0, 1) {
		t.Fatal("fresh vertices connected")
	}
	x.InsertEdge(0, 1, 1)
	x.InsertEdge(2, 3, 2)
	if !x.Connected(0, 1) || x.Connected(1, 2) {
		t.Fatal("insert connectivity wrong")
	}
	x.InsertEdge(1, 2, 3)
	if !x.Connected(0, 3) {
		t.Fatal("chained components not connected")
	}
	if x.TreeEdges() != 3 {
		t.Fatalf("tree edges = %d, want 3", x.TreeEdges())
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNonTreeInsertKeepsForest(t *testing.T) {
	x := New(4)
	x.InsertEdge(0, 1, 1)
	x.InsertEdge(1, 2, 2)
	before := x.TreeEdges()
	x.InsertEdge(0, 2, 3) // cycle edge
	if x.TreeEdges() != before {
		t.Fatal("cycle edge became a tree edge")
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonTreeEdge(t *testing.T) {
	x := New(4)
	x.InsertEdge(0, 1, 1)
	x.InsertEdge(1, 2, 2)
	x.InsertEdge(0, 2, 3)
	if !x.DeleteEdge(0, 2) {
		t.Fatal("delete failed")
	}
	if !x.Connected(0, 2) {
		t.Fatal("deleting a cycle edge disconnected the component")
	}
}

func TestDeleteTreeEdgeWithReplacement(t *testing.T) {
	x := New(4)
	x.InsertEdge(0, 1, 1) // tree
	x.InsertEdge(1, 2, 2) // tree
	x.InsertEdge(0, 2, 3) // cycle
	if !x.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	if !x.Connected(0, 1) {
		t.Fatal("replacement edge not found")
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTreeEdgeSplits(t *testing.T) {
	x := New(4)
	x.InsertEdge(0, 1, 1)
	x.InsertEdge(1, 2, 2)
	if !x.DeleteEdge(1, 2) {
		t.Fatal("delete failed")
	}
	if x.Connected(1, 2) || x.Connected(0, 2) {
		t.Fatal("component did not split")
	}
	if !x.Connected(0, 1) {
		t.Fatal("surviving edge lost")
	}
}

func TestParallelEdgesSurviveDeletion(t *testing.T) {
	x := New(3)
	x.InsertEdge(0, 1, 1)
	x.InsertEdge(0, 1, 2) // parallel copy
	if !x.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	if !x.Connected(0, 1) {
		t.Fatal("parallel copy should keep endpoints connected")
	}
	if !x.DeleteEdge(0, 1) {
		t.Fatal("second delete failed")
	}
	if x.Connected(0, 1) {
		t.Fatal("still connected after both copies deleted")
	}
}

func TestSelfLoops(t *testing.T) {
	x := New(3)
	x.InsertEdge(1, 1, 5)
	if x.NumEdges() != 1 {
		t.Fatalf("m = %d", x.NumEdges())
	}
	if !x.Connected(1, 1) {
		t.Fatal("self connectivity")
	}
	if !x.DeleteEdge(1, 1) || x.DeleteEdge(1, 1) {
		t.Fatal("self loop delete wrong")
	}
}

func TestDeleteAbsent(t *testing.T) {
	x := New(3)
	if x.DeleteEdge(0, 1) {
		t.Fatal("delete of absent edge succeeded")
	}
}

func TestAgainstOracleRandomOps(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		const n = 20
		r := xrand.New(seed)
		x := New(n)
		o := newNaive(n)
		type e struct{ u, v uint32 }
		var live []e
		for op := 0; op < 250; op++ {
			if len(live) > 0 && r.Float64() < 0.4 {
				i := r.Intn(len(live))
				ed := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if x.DeleteEdge(ed.u, ed.v) != o.delete(ed.u, ed.v) {
					return false
				}
			} else {
				u, v := r.Uint32n(n), r.Uint32n(n)
				x.InsertEdge(u, v, uint32(op))
				o.insert(u, v)
				live = append(live, e{u, v})
			}
			// Spot-check connectivity.
			a, b := r.Uint32n(n), r.Uint32n(n)
			if x.Connected(a, b) != o.connected(a, b) {
				return false
			}
		}
		if x.ComponentCount() != o.components() {
			return false
		}
		return x.CheckInvariants() == nil
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWorldChurn(t *testing.T) {
	p := rmat.PaperParams(10, 5*(1<<10), 100, 3)
	edges, err := rmat.Generate(0, p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumVertices()
	x := New(n)
	for _, e := range edges {
		x.InsertEdge(e.U, e.V, e.T)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete a random third; forest must stay consistent.
	r := xrand.New(4)
	deleted := 0
	for _, e := range edges {
		if r.Float64() < 0.33 && x.DeleteEdge(e.U, e.V) {
			deleted++
		}
	}
	if deleted == 0 {
		t.Fatal("no deletions exercised")
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Spot-check against store reachability via a fresh component count.
	if x.ComponentCount() <= 0 || x.ComponentCount() > n {
		t.Fatalf("component count %d out of range", x.ComponentCount())
	}
}

func TestEdgeCountsHalved(t *testing.T) {
	x := New(4)
	x.InsertEdge(0, 1, 1)
	x.InsertEdge(1, 2, 2)
	if x.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 undirected edges", x.NumEdges())
	}
	if x.NumVertices() != 4 {
		t.Fatalf("n = %d", x.NumVertices())
	}
}
