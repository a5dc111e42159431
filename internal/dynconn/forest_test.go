package dynconn

import (
	"testing"
	"testing/quick"

	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/traversal"
	"snapdyn/internal/xrand"
)

func TestLinkCutBasics(t *testing.T) {
	f := NewForest(5)
	if f.Size() != 5 {
		t.Fatalf("size = %d", f.Size())
	}
	// Build 0 <- 1 <- 2 and 3 <- 4.
	if err := f.Link(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Link(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Link(4, 3); err != nil {
		t.Fatal(err)
	}
	if f.FindRoot(2) != 0 || f.FindRoot(4) != 3 {
		t.Fatal("findroot wrong")
	}
	if !f.Connected(0, 2) || f.Connected(2, 4) {
		t.Fatal("connected wrong")
	}
	if p, ok := f.Parent(2); !ok || p != 1 {
		t.Fatal("parent wrong")
	}
	if _, ok := f.Parent(0); ok {
		t.Fatal("root has a parent")
	}
}

func TestLinkErrors(t *testing.T) {
	f := NewForest(4)
	if err := f.Link(1, 0); err != nil {
		t.Fatal(err)
	}
	// 1 is no longer a root.
	if err := f.Link(1, 2); err == nil {
		t.Fatal("link of non-root succeeded")
	}
	// Cycle: root 0, linking 0 under 1 (whose root is 0).
	if err := f.Link(0, 1); err == nil {
		t.Fatal("cycle link succeeded")
	}
	// Self-cycle.
	if err := f.Link(2, 2); err == nil {
		t.Fatal("self link succeeded")
	}
}

func TestCut(t *testing.T) {
	f := NewForest(4)
	_ = f.Link(1, 0)
	_ = f.Link(2, 1)
	_ = f.Link(3, 2)
	if !f.Cut(2) {
		t.Fatal("cut failed")
	}
	if f.Connected(3, 0) {
		t.Fatal("still connected after cut")
	}
	if f.FindRoot(3) != 2 {
		t.Fatalf("new root = %d, want 2", f.FindRoot(3))
	}
	if f.Cut(0) {
		t.Fatal("cutting a root returned true")
	}
	// Relink after cut.
	if err := f.Link(2, 0); err != nil {
		t.Fatal(err)
	}
	if !f.Connected(3, 1) {
		t.Fatal("relink failed")
	}
}

func TestHeight(t *testing.T) {
	f := NewForest(4)
	_ = f.Link(1, 0)
	_ = f.Link(2, 1)
	_ = f.Link(3, 2)
	if f.FindRoot(3) != 0 {
		t.Fatalf("findroot(3) = %d, want 0", f.FindRoot(3))
	}
	if f.Height() != 3 {
		t.Fatalf("height = %d", f.Height())
	}
}

func TestBuildFromGraph(t *testing.T) {
	// Two components plus an isolate.
	edges := []edge.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle
		{U: 4, V: 5}, // pair
	}
	g := csr.FromEdges(2, 7, edges, true)
	for _, strategy := range []traversal.Strategy{traversal.TopDown, traversal.DirectionOpt} {
		f := BuildStrategy(4, g, strategy)
		if err := f.check(); err != nil {
			t.Fatal(err)
		}
		if !f.Connected(0, 2) || !f.Connected(4, 5) {
			t.Fatal("in-component connectivity lost")
		}
		if f.Connected(0, 4) || f.Connected(3, 6) || f.Connected(5, 6) {
			t.Fatal("cross-component connectivity invented")
		}
	}
}

func TestBuildMatchesComponents(t *testing.T) {
	p := rmat.PaperParams(11, 6*(1<<11), 0, 3)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(4, p.NumVertices(), edgesL, true)
	comp := cc.Components(4, g)
	for _, strategy := range []traversal.Strategy{traversal.TopDown, traversal.DirectionOpt} {
		f := BuildStrategy(4, g, strategy)
		if err := f.check(); err != nil {
			t.Fatal(err)
		}
		// Connectivity by forest must equal connectivity by labels for
		// random pairs.
		r := xrand.New(5)
		for i := 0; i < 5000; i++ {
			u := edge.ID(r.Uint32n(uint32(g.N)))
			v := edge.ID(r.Uint32n(uint32(g.N)))
			if f.Connected(u, v) != cc.SameComponent(comp, u, v) {
				t.Fatalf("%v: forest and labels disagree on (%d,%d)", strategy, u, v)
			}
		}
	}
}

func TestBuildHeightBounded(t *testing.T) {
	// BFS construction keeps tree height within the traversal levels,
	// far below n for small-world graphs.
	p := rmat.PaperParams(12, 8*(1<<12), 0, 9)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(4, p.NumVertices(), edgesL, true)
	f := Build(4, g)
	if h := f.Height(); h > 64 {
		t.Fatalf("BFS forest height %d too large for a small-world graph", h)
	}
}

func TestConnectedBatch(t *testing.T) {
	f := NewForest(6)
	_ = f.Link(1, 0)
	_ = f.Link(2, 0)
	_ = f.Link(4, 3)
	queries := []Query{{1, 2}, {1, 3}, {3, 4}, {5, 5}, {0, 5}}
	results := make([]bool, len(queries))
	f.ConnectedBatch(4, queries, results)
	want := []bool{true, false, true, true, false}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("query %d = %v, want %v", i, results[i], want[i])
		}
	}
}

func TestLinkCutProperty(t *testing.T) {
	// Random link/cut sequences vs a naive reachability oracle.
	if err := quick.Check(func(seed uint64) bool {
		const n = 24
		r := xrand.New(seed)
		f := NewForest(n)
		parent := make([]int, n) // oracle: parent or -1
		for i := range parent {
			parent[i] = -1
		}
		rootOf := func(v int) int {
			for parent[v] >= 0 {
				v = parent[v]
			}
			return v
		}
		for op := 0; op < 300; op++ {
			v := int(r.Uint32n(n))
			w := int(r.Uint32n(n))
			if r.Float64() < 0.6 {
				wantErr := parent[v] >= 0 || rootOf(w) == v
				err := f.Link(edge.ID(v), edge.ID(w))
				if (err != nil) != wantErr {
					return false
				}
				if err == nil {
					parent[v] = w
				}
			} else {
				want := parent[v] >= 0
				if f.Cut(edge.ID(v)) != want {
					return false
				}
				parent[v] = -1
			}
			if f.check() != nil {
				return false
			}
		}
		for v := 0; v < n; v++ {
			if int(f.FindRoot(edge.ID(v))) != rootOf(v) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyForest(t *testing.T) {
	g := csr.FromEdges(1, 0, nil, true)
	f := Build(2, g)
	if f.Size() != 0 {
		t.Fatal("empty build wrong")
	}
}
