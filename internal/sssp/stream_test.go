package sssp

import (
	"testing"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
)

func TestRunStreamMatchesDijkstraSmall(t *testing.T) {
	g := weightedGraph(6, true,
		[3]uint32{0, 1, 4}, [3]uint32{0, 2, 1}, [3]uint32{2, 1, 2},
		[3]uint32{1, 3, 5}, [3]uint32{2, 3, 8}, [3]uint32{3, 4, 3})
	cg := compress.FromCSR(0, g)
	for _, workers := range []int{1, 4} {
		dist := RunStream(cg, 0, workers, LabelWeights, nil)
		assertMatchesDijkstra(t, g, 0, dist, "small")
		if dist[5] != Inf {
			t.Fatalf("isolated vertex dist = %d, want Inf", dist[5])
		}
	}
}

func TestRunStreamMatchesDijkstraRMAT(t *testing.T) {
	p := rmat.PaperParams(10, 8*(1<<10), 1000, 7)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, 1<<10, edgesL, true)
	cg := compress.FromCSR(0, g)
	sc := NewStreamScratch()
	for _, src := range []edge.ID{0, 17, 512} {
		for _, workers := range []int{1, 4} {
			dist := RunStream(cg, src, workers, LabelWeights, sc)
			assertMatchesDijkstra(t, g, src, dist, "rmat")
		}
	}
}

func TestRunStreamZeroWeights(t *testing.T) {
	// Zero-weight arcs must not enqueue forever (strict-improvement
	// relaxation terminates) and distances still match Dijkstra.
	g := weightedGraph(4, true,
		[3]uint32{0, 1, 0}, [3]uint32{1, 2, 0}, [3]uint32{2, 3, 5})
	cg := compress.FromCSR(0, g)
	dist := RunStream(cg, 0, 1, LabelWeights, nil)
	assertMatchesDijkstra(t, g, 0, dist, "zero weights")
}

func TestRunStreamSteadyStateAllocations(t *testing.T) {
	p := rmat.PaperParams(9, 8*(1<<9), 50, 11)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, 1<<9, edgesL, true)
	cg := compress.FromCSR(0, g)
	sc := NewStreamScratch()
	RunStream(cg, 0, 1, LabelWeights, sc) // warm up
	allocs := testing.AllocsPerRun(5, func() {
		RunStream(cg, 3, 1, LabelWeights, sc)
	})
	if allocs != 0 {
		t.Fatalf("serial steady-state RunStream allocated %.1f/op, want 0", allocs)
	}
}

// TestRunArcsCompressedDelta: a compressed graph runs the band loop at
// the requested delta, and delta <= 0 applies the heuristic to a sample
// of the compressed labels; every width gives Dijkstra's distances.
func TestRunArcsCompressedDelta(t *testing.T) {
	p := rmat.PaperParams(10, 8*(1<<10), 1000, 13)
	edgesL, _ := rmat.Generate(0, p)
	g := csr.FromEdges(0, 1<<10, edgesL, true)
	cg := compress.FromCSR(0, g)
	a := compress.Arcs{C: cg}
	sc := NewScratch()
	auto, _ := sampleCompressed(nil, cg)
	if auto < 1 || auto > 1000 {
		t.Fatalf("heuristic delta %d outside [1, max label]", auto)
	}
	for _, delta := range []int64{1, 0, 1 << 20} {
		for _, workers := range []int{1, 4} {
			dist := RunArcs(a, 17, Options{Workers: workers, Delta: delta, Scratch: sc})
			assertMatchesDijkstra(t, g, 17, dist, "compressed delta")
			want := delta
			if delta <= 0 {
				want = auto
			}
			if got := sc.deltas.Delta(); got != want {
				t.Fatalf("delta %d: ran at %d, want %d", delta, got, want)
			}
		}
	}
}
