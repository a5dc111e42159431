package traversal

import (
	"testing"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
)

func lineGraph(n int) *csr.Graph {
	var edges []edge.Edge
	for i := uint32(0); i < uint32(n-1); i++ {
		edges = append(edges, edge.Edge{U: i, V: i + 1, T: i + 1})
	}
	return csr.FromEdges(2, n, edges, true)
}

func TestBFSLine(t *testing.T) {
	g := lineGraph(100)
	res := BFS(4, g, 0)
	if res.Reached != 100 {
		t.Fatalf("reached %d, want 100", res.Reached)
	}
	for v := 0; v < 100; v++ {
		if res.Level[v] != int32(v) {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], v)
		}
	}
	if res.Levels != 100 {
		t.Fatalf("levels = %d, want 100", res.Levels)
	}
	for v := 1; v < 100; v++ {
		if res.Parent[v] != uint32(v-1) {
			t.Fatalf("parent[%d] = %d", v, res.Parent[v])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	edges := []edge.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	g := csr.FromEdges(1, 4, edges, true)
	res := BFS(2, g, 0)
	if res.Reached != 2 {
		t.Fatalf("reached %d, want 2", res.Reached)
	}
	if res.Level[2] != NotVisited || res.Level[3] != NotVisited {
		t.Fatal("unreachable vertices marked visited")
	}
}

func TestBFSStar(t *testing.T) {
	// High-degree hub exercises edge-balanced partitioning.
	const n = 5000
	var edges []edge.Edge
	for v := uint32(1); v < n; v++ {
		edges = append(edges, edge.Edge{U: 0, V: v})
	}
	g := csr.FromEdges(4, n, edges, true)
	res := BFS(8, g, 0)
	if res.Reached != n {
		t.Fatalf("reached %d, want %d", res.Reached, n)
	}
	for v := 1; v < n; v++ {
		if res.Level[v] != 1 || res.Parent[v] != 0 {
			t.Fatalf("leaf %d: level %d parent %d", v, res.Level[v], res.Parent[v])
		}
	}
	// From a leaf: hub at 1, other leaves at 2.
	res = BFS(8, g, 17)
	if res.Level[0] != 1 || res.Level[18] != 2 {
		t.Fatalf("leaf-rooted levels wrong: %d %d", res.Level[0], res.Level[18])
	}
}

func bfsReference(g *csr.Graph, src edge.ID) []int32 {
	level := make([]int32, g.N)
	for i := range level {
		level[i] = NotVisited
	}
	level[src] = 0
	queue := []uint32{uint32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		adj, _ := g.Neighbors(u)
		for _, v := range adj {
			if level[v] == NotVisited {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}

func TestBFSMatchesReferenceRMAT(t *testing.T) {
	p := rmat.PaperParams(11, 8*(1<<11), 0, 13)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(4, p.NumVertices(), edgesL, true)
	for _, src := range []edge.ID{0, 1, 100, 2000} {
		want := bfsReference(g, src)
		for _, workers := range []int{1, 4, 8} {
			got := BFS(workers, g, src)
			for v := range want {
				if got.Level[v] != want[v] {
					t.Fatalf("workers=%d src=%d: level[%d] = %d, want %d",
						workers, src, v, got.Level[v], want[v])
				}
			}
		}
	}
}

func TestBFSParentsFormTree(t *testing.T) {
	p := rmat.PaperParams(10, 5*(1<<10), 0, 21)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(4, p.NumVertices(), edgesL, true)
	res := BFS(4, g, 0)
	for v := range res.Level {
		if res.Level[v] == NotVisited || v == 0 {
			continue
		}
		pv := res.Parent[v]
		if res.Level[pv] != res.Level[v]-1 {
			t.Fatalf("parent level invariant broken at %d", v)
		}
	}
}

func TestTemporalBFSWindow(t *testing.T) {
	// Path 0-1-2-3 with rising labels; a window cutting the middle edge
	// splits reachability.
	edges := []edge.Edge{
		{U: 0, V: 1, T: 10}, {U: 1, V: 2, T: 50}, {U: 2, V: 3, T: 90},
	}
	g := csr.FromEdges(1, 4, edges, true)
	res := TemporalBFS(2, g, 0, TimeWindow(0, 40))
	if res.Level[1] != 1 || res.Level[2] != NotVisited || res.Level[3] != NotVisited {
		t.Fatalf("windowed BFS wrong: %v", res.Level)
	}
	res = TemporalBFS(2, g, 0, TimeWindow(0, 100))
	if res.Reached != 4 {
		t.Fatalf("full-window BFS reached %d", res.Reached)
	}
	res = TemporalBFS(2, g, 0, nil)
	if res.Reached != 4 {
		t.Fatal("nil filter should accept all")
	}
}

// stConnected is the early-exiting st-connectivity traversal the
// serving layers run: Run from s under Cuts.ST(t), which stops after
// the level that settles t. It fails the test unless the answer matches
// a full BFS from s, an oracle that does not share the cut, and returns
// reachability, the hop distance (-1 when unreachable) and the result.
func stConnected(tb testing.TB, workers int, g *csr.Graph, s, t uint32) (bool, int32, *Result) {
	tb.Helper()
	var res Result
	var cuts Cuts
	Run(g, []uint32{s}, Options{Workers: workers, Hooks: cuts.ST(&res, t)}, nil, &res)
	d := res.Level[t]
	if want := BFS(workers, g, s).Level[t]; d != want {
		tb.Fatalf("st(%d,%d) hops %d, full BFS level %d", s, t, d, want)
	}
	return d != NotVisited, d, &res
}

func TestSTConnected(t *testing.T) {
	g := lineGraph(10)
	ok, d, _ := stConnected(t, 2, g, 0, 9)
	if !ok || d != 9 {
		t.Fatalf("st = (%v,%d), want (true,9)", ok, d)
	}
	ok, d, _ = stConnected(t, 2, g, 3, 3)
	if !ok || d != 0 {
		t.Fatalf("self st = (%v,%d)", ok, d)
	}
	edges := []edge.Edge{{U: 0, V: 1}}
	g2 := csr.FromEdges(1, 3, edges, true)
	ok, d, _ = stConnected(t, 2, g2, 0, 2)
	if ok || d != -1 {
		t.Fatalf("disconnected st = (%v,%d)", ok, d)
	}
}

func TestBFSEmptySource(t *testing.T) {
	g := csr.FromEdges(1, 3, nil, false)
	res := BFS(2, g, 1)
	// Levels counts frontier expansions: the lone source level is 1.
	if res.Reached != 1 || res.Level[1] != 0 || res.Levels != 1 {
		t.Fatalf("isolated source BFS wrong: %+v", res)
	}
}
