package snapdyn

import (
	"slices"
	"testing"

	"snapdyn/internal/qserve"
)

// TestCompressedSSSPHonoursDelta: under SnapshotCompressed, the facade's
// SSSPWith (with and without a scratch) and the executor's SSSP query
// run delta-stepping with the requested bucket width — 1, the heuristic
// (0), and one wider than every distance — and every width gives
// Dijkstra's distances.
func TestCompressedSSSPHonoursDelta(t *testing.T) {
	p := PaperRMAT(11, 8<<11, 100, 77)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		t.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	mgr := g.ManagerWithLayout(0, SnapshotCompressed)
	snap := mgr.Current()
	ex := executorFor(mgr, qserve.Config{Undirected: true, MaxConcurrent: 1})
	sc := NewSSSPScratch()
	for _, src := range snap.SampleSources(3, 5) {
		want := snap.ShortestPathsDijkstra(src)
		var reached int
		var maxDist int64
		for _, d := range want {
			if d != InfDistance {
				reached++
				maxDist = max(maxDist, d)
			}
		}
		for _, delta := range []int64{1, 0, 1 << 20} {
			for _, workers := range []int{1, 2} {
				if got := snap.SSSPWith(src, SSSPOptions{Workers: workers, Delta: delta}); !slices.Equal(got, want) {
					t.Fatalf("src %d delta %d workers %d: SSSPWith differs from Dijkstra", src, delta, workers)
				}
			}
			if got := snap.SSSPWith(src, SSSPOptions{Workers: 1, Delta: delta, Scratch: sc}); !slices.Equal(got, want) {
				t.Fatalf("src %d delta %d: SSSPWith with a scratch differs from Dijkstra", src, delta)
			}
			r, err := ex.SSSP(src, delta)
			if err != nil {
				t.Fatal(err)
			}
			if r.Reached != reached || r.MaxDist != maxDist {
				t.Fatalf("src %d delta %d: executor reached %d, maxDist %d; Dijkstra %d, %d",
					src, delta, r.Reached, r.MaxDist, reached, maxDist)
			}
		}
	}
}
