package snapdyn

import (
	"slices"
	"testing"

	"snapdyn/internal/qserve"
)

// directedLayoutGraphs returns directed graphs whose components the
// layouts must agree on: arcs 1->0, 3->2 and 2->4, where following
// out-arcs alone from the smallest id splits {0,1} and {2,3,4}, and a
// directed R-MAT graph.
func directedLayoutGraphs(t *testing.T) map[string]func() *Graph {
	t.Helper()
	p := PaperRMAT(10, 4<<10, 50, 91)
	rmat, err := GenerateRMAT(0, p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() *Graph{
		"five": func() *Graph {
			g := New(5)
			g.InsertEdges(0, []Edge{{U: 1, V: 0, T: 1}, {U: 3, V: 2, T: 2}, {U: 2, V: 4, T: 3}})
			return g
		},
		"rmat": func() *Graph {
			g := New(p.NumVertices(), WithExpectedEdges(len(rmat)))
			g.InsertEdges(0, rmat)
			return g
		},
	}
}

// TestDirectedLayoutsComponents: on directed snapshots, Snapshot.Components
// and the executor's Components query answer under every layout exactly
// as under plain — arcs count as undirected edges everywhere, so the
// labels are the weakly-connected components in every layout.
func TestDirectedLayoutsComponents(t *testing.T) {
	layouts := []SnapshotLayout{
		SnapshotPlain, SnapshotDegree, SnapshotCompressed,
	}
	for name, build := range directedLayoutGraphs(t) {
		var want []uint32
		var wantReply qserve.ComponentsReply
		for _, l := range layouts {
			mgr := build().ManagerWithLayout(0, l)
			for _, workers := range []int{1, 2} {
				got := mgr.Current().Components(workers)
				if l == SnapshotPlain && workers == 1 {
					want = got
				} else if !slices.Equal(got, want) {
					t.Fatalf("%s %v workers=%d: Components = %v, want plain's %v", name, l, workers, got, want)
				}

				ex := executorFor(mgr, qserve.Config{Workers: workers, MaxConcurrent: 1})
				r, err := ex.Components()
				if err != nil {
					t.Fatal(err)
				}
				r.Epoch = 0
				if l == SnapshotPlain && workers == 1 {
					wantReply = r
				} else if r != wantReply {
					t.Fatalf("%s %v workers=%d: executor Components = %+v, want plain's %+v", name, l, workers, r, wantReply)
				}
			}
		}
		if name == "five" && !slices.Equal(want, []uint32{0, 0, 2, 2, 2}) {
			t.Fatalf("five: plain Components = %v, want [0 0 2 2 2]", want)
		}
	}
}
