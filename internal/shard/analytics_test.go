package shard

import (
	"fmt"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// singleExecutor builds the single-snapshot reference executor over the
// same update stream a fleet under test ingests.
func singleExecutor(t *testing.T, n int, ups []edge.Update) *qserve.Executor {
	t.Helper()
	mgr := snapmgr.New(2, dyngraph.NewTracked(dyngraph.NewHybrid(n, len(ups), 0, 1)))
	single := qserve.New(mgr, qserve.Config{Undirected: true})
	if _, err := single.Ingest(2, ups); err != nil {
		t.Fatal(err)
	}
	mgr.Refresh(2)
	return single
}

// TestFleetAnalyticsParity extends the single-vs-fleet equivalence
// guarantee to the analytics kinds, across every shard count:
// clustering, k-hop and PageRank must answer bit-identically (integer
// counts; the float mean is summed, and every rank receives its
// additions, in original-id order on both engines).
func TestFleetAnalyticsParity(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 21)
	ups = stream.Mirror(ups)
	single := singleExecutor(t, n, ups)

	const tol = 1e-9
	wantCl, err := single.Clustering()
	if err != nil {
		t.Fatal(err)
	}
	wantPR, err := single.PageRank(tol)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range shardCounts {
		f := testFleet(n, p, ups)
		ex := NewExecutor(f, qserve.Config{Undirected: true})

		cl, err := ex.Clustering()
		if err != nil {
			t.Fatal(err)
		}
		if cl.Triangles != wantCl.Triangles || cl.Counted != wantCl.Counted || cl.AvgLocal != wantCl.AvgLocal {
			t.Fatalf("shards=%d: Clustering = %+v, single %+v (bit-identical)", p, cl, wantCl)
		}

		for _, src := range []uint32{0, 7, uint32(n / 2), uint32(n - 1)} {
			for _, k := range []uint32{0, 1, 2, 5, 1 << 29} {
				want, err := single.KHop(src, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ex.KHop(src, k)
				if err != nil {
					t.Fatal(err)
				}
				if got.Reached != want.Reached {
					t.Fatalf("shards=%d: KHop(%d,%d) = %d, single %d", p, src, k, got.Reached, want.Reached)
				}
			}
		}

		pr, err := ex.PageRank(tol)
		if err != nil {
			t.Fatal(err)
		}
		pr.Epoch = wantPR.Epoch // the fleet epoch sums per-shard publications
		if pr != wantPR {
			t.Fatalf("shards=%d: PageRank = %+v, single %+v (bit-identical)", p, pr, wantPR)
		}
		if pr.Iterations <= 0 || pr.Tol != tol {
			t.Fatalf("shards=%d: PageRank metadata %+v implausible", p, pr)
		}
	}
}

// TestFleetPageRankRepeatable runs cache-off PageRank many times on one
// pinned view set and demands one answer: rank additions follow
// original-id order, not the schedule, so a repeat cannot drift in the
// trailing digits.
func TestFleetPageRankRepeatable(t *testing.T) {
	n, ups := testUpdates(t, 12, 8, 29)
	ups = stream.Mirror(ups)
	for _, p := range []int{2, 3} {
		ex := NewExecutor(testFleet(n, p, ups), qserve.Config{Undirected: true})
		first, err := ex.PageRank(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 20; i++ {
			got, err := ex.PageRank(0)
			if err != nil {
				t.Fatal(err)
			}
			if got != first {
				t.Fatalf("shards=%d: query %d = %+v, first %+v", p, i, got, first)
			}
		}
	}
}

// BenchmarkFleetPageRank measures warm, uncached fleet PageRank at the
// default tolerance at scale 14. A warm query must not allocate.
func BenchmarkFleetPageRank(b *testing.B) {
	n, ups := testUpdates(b, 14, 8, 5)
	ups = stream.Mirror(ups)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			ex := NewExecutor(testFleet(n, p, ups), qserve.Config{MaxConcurrent: 1, Undirected: true})
			query := func() {
				if _, err := ex.PageRank(0); err != nil {
					b.Fatal(err)
				}
			}
			query() // size the iterates
			if a := testing.AllocsPerRun(1, query); a != 0 {
				b.Fatalf("warm fleet PageRank allocates %g objects/op, want 0", a)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query()
			}
		})
	}
}

// TestFleetAnalyticsCacheHitZeroAlloc extends the fleet's cache-hit
// allocation guard to the analytics kinds: once cached against the
// pinned view set, repeats answer without allocating.
func TestFleetAnalyticsCacheHitZeroAlloc(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 23)
	ups = stream.Mirror(ups)
	f := testFleet(n, 4, ups)
	ex := NewExecutor(f, qserve.Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 64 << 20})

	warm := func() {
		if _, err := ex.Clustering(); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.KHop(1, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.PageRank(0); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	if c := ex.Cache().Counters(); c.Hits < 3 {
		t.Fatalf("warm-up did not hit the cache: %+v", c)
	}

	if a := testing.AllocsPerRun(30, func() {
		if _, err := ex.Clustering(); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("fleet cache-hit clustering allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(30, func() {
		if _, err := ex.KHop(1, 3); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("fleet cache-hit khop allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(30, func() {
		if _, err := ex.PageRank(0); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("fleet cache-hit pagerank allocates %.1f objects/op, want 0", a)
	}
}
