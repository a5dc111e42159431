package snapdyn

import (
	"testing"

	"snapdyn/internal/qserve"
)

// benchExecutor builds the serving stack over an R-MAT graph at the
// given scale — the shared setup of the analytics-kind benchmarks.
func benchExecutor(b *testing.B, scale int, cfg qserve.Config) (*qserve.Executor, *SnapshotManager) {
	b.Helper()
	n := 1 << scale
	edges, err := GenerateRMAT(0, PaperRMAT(scale, 10*n, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := New(n, WithExpectedEdges(4*len(edges)), Undirected())
	g.InsertEdges(0, edges)
	sm := g.Manager(0)
	return executorFor(sm, cfg), sm
}

// BenchmarkClusteringQuery measures the pooled clustering-coefficient
// query: a full triangle recount per op from the reused arena.
// allocs/op must stay at zero at the serving config.
func BenchmarkClusteringQuery(b *testing.B) {
	ex, _ := benchExecutor(b, 14, qserve.Config{Undirected: true, MaxConcurrent: 1})
	if _, err := ex.Clustering(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Clustering(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKHopQuery measures the depth-limited neighborhood query at
// the acceptance scale: a BFS truncated at level k, so arcs beyond the
// horizon are never expanded. allocs/op must stay at zero.
func BenchmarkKHopQuery(b *testing.B) {
	ex, sm := benchExecutor(b, 16, qserve.Config{Undirected: true, MaxConcurrent: 1})
	src := sm.Current().SampleSources(1, 1)[0]
	if _, err := ex.KHop(src, 3); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.KHop(src, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRankQuery measures the power-iteration PageRank solve at
// the default tolerance, all state pooled. allocs/op must stay at zero.
func BenchmarkPageRankQuery(b *testing.B) {
	ex, _ := benchExecutor(b, 14, qserve.Config{Undirected: true, MaxConcurrent: 1})
	if _, err := ex.PageRank(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.PageRank(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveConnectedQuery measures the between-refresh connectivity
// path at the acceptance scale: admission, two root walks in the
// dynamic forest under a read lock, reply by value. allocs/op must stay
// at zero — this is the query the ingest hot path answers from.
func BenchmarkLiveConnectedQuery(b *testing.B) {
	ex, sm := benchExecutor(b, 16, qserve.Config{Undirected: true, MaxConcurrent: 1})
	ex.EnableLive()
	srcs := sm.Current().SampleSources(2, 1)
	if _, err := ex.ConnectedLive(srcs[0], srcs[1]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ConnectedLive(srcs[0], srcs[1]); err != nil {
			b.Fatal(err)
		}
	}
}
