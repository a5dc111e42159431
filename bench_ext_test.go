package snapdyn

// Ablation benchmarks for the future-work extensions: compressed
// adjacency (memory vs decode time), vertex reordering (cache locality),
// and incremental connectivity maintenance vs snapshot rebuilds.

import (
	"testing"

	"snapdyn/internal/xrand"
)

func buildBenchSnapshot(b *testing.B, scale int) *Snapshot {
	b.Helper()
	p := PaperRMAT(scale, 8<<scale, 100, 3)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	return g.Snapshot(0)
}

// BenchmarkAblationCompressedBFS compares traversal over the CSR
// snapshot against the gap-compressed representation, reporting the
// compression ratio.
func BenchmarkAblationCompressedBFS(b *testing.B) {
	snap := buildBenchSnapshot(b, 14)
	src := snap.SampleSources(1, 5)[0]
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap.BFS(0, src)
		}
	})
	b.Run("compressed", func(b *testing.B) {
		cs := snap.Compress(0)
		b.ReportMetric(cs.CompressionRatio(), "compression_x")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.BFS(0, src)
		}
	})
}

// BenchmarkAblationReorderBFS measures BFS over the original labeling
// vs the degree-ordered relabeling.
func BenchmarkAblationReorderBFS(b *testing.B) {
	snap := buildBenchSnapshot(b, 14)
	src := snap.SampleSources(1, 7)[0]
	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap.BFS(0, src)
		}
	})
	b.Run("degree-ordered", func(b *testing.B) {
		perm := snap.ReorderByDegree()
		rg := snap.Relabel(0, perm)
		rsrc := perm[src]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rg.BFS(0, rsrc)
		}
	})
}

// BenchmarkAblationIncrementalVsRebuild compares answering connectivity
// after each small update batch via (a) the incremental dynamic-forest
// index and (b) snapshot + link-cut rebuild — the "process queries
// faster than recomputing from scratch" motivation of dynamic graph
// algorithms.
func BenchmarkAblationIncrementalVsRebuild(b *testing.B) {
	const scale = 12
	p := PaperRMAT(scale, 8<<scale, 100, 9)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	n := p.NumVertices()
	const batchSize = 256
	r := xrand.New(1)
	mkBatch := func() []Edge {
		batch := make([]Edge, batchSize)
		for i := range batch {
			batch[i] = Edge{U: r.Uint32n(uint32(n)), V: r.Uint32n(uint32(n)), T: 1}
		}
		return batch
	}
	b.Run("incremental", func(b *testing.B) {
		d := NewDynamicConnectivity(n)
		for _, e := range edges {
			d.InsertEdge(e.U, e.V, e.T)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range mkBatch() {
				d.InsertEdge(e.U, e.V, e.T)
			}
			d.Connected(0, uint32(i)%uint32(n))
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		g := New(n, WithExpectedEdges(4*len(edges)), Undirected())
		g.InsertEdges(0, edges)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range mkBatch() {
				g.InsertEdge(e.U, e.V, e.T)
			}
			snap := g.Snapshot(0)
			conn := snap.Connectivity(0)
			conn.Connected(0, uint32(i)%uint32(n))
		}
	})
}

// BenchmarkLCTQueryLatency measures single connectivity-query latency on
// the link-cut forest (the per-query cost behind Figure 8's throughput).
func BenchmarkLCTQueryLatency(b *testing.B) {
	snap := buildBenchSnapshot(b, 14)
	conn := snap.Connectivity(0)
	n := uint32(snap.NumVertices())
	r := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Connected(r.Uint32n(n), r.Uint32n(n))
	}
}

// BenchmarkSnapshotBuild measures CSR snapshot construction from the
// hybrid store.
func BenchmarkSnapshotBuild(b *testing.B) {
	p := PaperRMAT(14, 8<<14, 100, 4)
	edges, err := GenerateRMAT(0, p)
	if err != nil {
		b.Fatal(err)
	}
	g := New(p.NumVertices(), WithExpectedEdges(2*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Snapshot(0)
	}
}
