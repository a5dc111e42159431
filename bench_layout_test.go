package snapdyn

// Benchmarks for the memory-scale snapshot formats the pipeline can
// publish: gap-compressed adjacency traversed by streaming decode, and
// degree-ordered CSR. Both assert the engine's zero-allocation
// steady state before timing — a regression there silently destroys the
// formats' throughput story.

import (
	"testing"

	"snapdyn/internal/traversal"
)

// layoutBenchSnapshot publishes one snapshot of a bench-sized R-MAT
// graph in the given layout and picks a giant-component source.
func layoutBenchSnapshot(b *testing.B, layout SnapshotLayout) (*Snapshot, VertexID) {
	b.Helper()
	p := PaperRMAT(14, 8<<14, 100, 3)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	snap := g.ManagerWithLayout(0, layout).Current()
	return snap, snap.SampleSources(1, 5)[0]
}

// BenchmarkCompressedBFS times the traversal engine streaming directly
// over the gap-compressed adjacency published by a SnapshotCompressed
// manager, with a warm scratch. The serial steady state must not
// allocate: the cursor decode borrows no buffers and the scratch holds
// every frontier.
func BenchmarkCompressedBFS(b *testing.B) {
	snap, src := layoutBenchSnapshot(b, SnapshotCompressed)
	scratch := traversal.NewScratch()
	res := &traversal.Result{}
	sources := []uint32{src}
	opt := traversal.Options{Workers: 1}
	traversal.RunStream(snap.cg, sources, opt, scratch, res)
	if allocs := testing.AllocsPerRun(5, func() {
		traversal.RunStream(snap.cg, sources, opt, scratch, res)
	}); allocs > 0 {
		b.Fatalf("compressed BFS steady-state allocs/run = %g, want 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traversal.RunStream(snap.cg, sources, opt, scratch, res)
	}
	b.ReportMetric(float64(snap.view.SizeBytes())/float64(snap.NumEdges()), "B/arc")
	b.ReportMetric(float64(snap.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

// BenchmarkReorderedBFS times the engine over the degree-ordered CSR
// layout in layout space (the facade translates at the boundary; the
// kernel itself runs on permuted ids), against the plain baseline.
func BenchmarkReorderedBFS(b *testing.B) {
	for _, layout := range []SnapshotLayout{
		SnapshotPlain, SnapshotDegree,
	} {
		b.Run(layout.String(), func(b *testing.B) {
			snap, src := layoutBenchSnapshot(b, layout)
			scratch := traversal.NewScratch()
			res := &traversal.Result{}
			sources := []uint32{snap.toLayout(src)}
			opt := traversal.Options{Workers: 1}
			traversal.Run(snap.g, sources, opt, scratch, res)
			if allocs := testing.AllocsPerRun(5, func() {
				traversal.Run(snap.g, sources, opt, scratch, res)
			}); allocs > 0 {
				b.Fatalf("%v BFS steady-state allocs/run = %g, want 0", layout, allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				traversal.Run(snap.g, sources, opt, scratch, res)
			}
			b.ReportMetric(float64(snap.view.SizeBytes())/float64(snap.NumEdges()), "B/arc")
			b.ReportMetric(float64(snap.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
		})
	}
}
