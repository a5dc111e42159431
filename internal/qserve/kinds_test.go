package qserve

import (
	"math"
	"testing"

	"snapdyn/internal/cluster"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/qcache"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/traversal"
	"snapdyn/internal/xrand"
)

// TestClusteringMatchesReference checks the pooled clustering query
// against the one-shot cluster.Compute kernel and an independent
// simple-degree count.
func TestClusteringMatchesReference(t *testing.T) {
	mgr, _ := newManager(t, 9, 19)
	ex := New(mgr, Config{Undirected: true})
	g := mgr.Current()

	want := cluster.Compute(1, g)
	got, err := ex.Clustering()
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want.TotalTriangles {
		t.Fatalf("Triangles = %d, want %d", got.Triangles, want.TotalTriangles)
	}
	if got.AvgLocal != want.GlobalAverage {
		t.Fatalf("AvgLocal = %v, want %v (bit-identical)", got.AvgLocal, want.GlobalAverage)
	}

	// Counted, independently: vertices whose deduplicated loop-free
	// degree is at least 2.
	counted := 0
	seen := map[uint32]bool{}
	for u := 0; u < g.N; u++ {
		clear(seen)
		adj, _ := g.Neighbors(edge.ID(u))
		for _, v := range adj {
			if v != uint32(u) {
				seen[v] = true
			}
		}
		if len(seen) >= 2 {
			counted++
		}
	}
	if got.Counted != counted {
		t.Fatalf("Counted = %d, want %d", got.Counted, counted)
	}
	if got.Epoch != mgr.Epoch() {
		t.Fatalf("Epoch = %d, want %d", got.Epoch, mgr.Epoch())
	}
}

// TestKHopMatchesBFSLevels checks the depth-limited traversal against a
// plain BFS level array: Reached(k) must equal the number of vertices
// whose BFS level is at most k, for every k from zero through past the
// eccentricity.
func TestKHopMatchesBFSLevels(t *testing.T) {
	mgr, _ := newManager(t, 9, 29)
	ex := New(mgr, Config{Undirected: true})
	g := mgr.Current()

	for _, src := range []uint32{0, 3, 101, 511} {
		ref := traversal.BFS(1, g, src)
		for _, k := range []uint32{0, 1, 2, 3, 7, 100, maxKHop} {
			want := 0
			for _, lvl := range ref.Level {
				if lvl != traversal.NotVisited && uint32(lvl) <= k {
					want++
				}
			}
			got, err := ex.KHop(src, k)
			if err != nil {
				t.Fatal(err)
			}
			if got.Reached != want {
				t.Fatalf("KHop(%d, %d) = %d, want %d", src, k, got.Reached, want)
			}
			if got.Src != src || got.K != k {
				t.Fatalf("KHop(%d, %d) echoed %+v", src, k, got)
			}
		}
		// Unbounded k reaches exactly the BFS closure.
		got, err := ex.KHop(src, maxKHop)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reached != ref.Reached {
			t.Fatalf("KHop(%d, inf) = %d, want BFS closure %d", src, got.Reached, ref.Reached)
		}
	}
}

// refPageRank is the dense Jacobi reference: iterate
// r' = (1-d)·1 + d·AᵀD⁻¹r to numerical convergence. Both serving
// engines solve this same fixed point with one power-iteration kernel,
// stopped at a tolerance, so their aggregates must land within a
// tolerance-proportional band of it.
func refPageRank(g *csr.Graph, iters int) []float64 {
	const d = PageRankDamping
	n := g.N
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 - d
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 1 - d
		}
		for u := 0; u < n; u++ {
			adj, _ := g.Neighbors(edge.ID(u))
			if len(adj) == 0 {
				continue
			}
			push := d * rank[u] / float64(len(adj))
			for _, v := range adj {
				next[v] += push
			}
		}
		rank, next = next, rank
	}
	return rank
}

// TestPageRankMatchesPowerIteration checks the served solve against the
// dense reference. Stopped once no rank moves by tau in a round, the
// iterate's L1 error is at most d/(1-d) times the last round's L1
// change, below n·tau, so any aggregate is within n·tau/(1-d) of the
// fixed point; the assertions use a 10x slack on that bound.
func TestPageRankMatchesPowerIteration(t *testing.T) {
	mgr, _ := newManager(t, 8, 31)
	ex := New(mgr, Config{Undirected: true, CacheBytes: 8 << 20})
	g := mgr.Current()
	n := g.N

	const tol = 1e-9
	// 400 damped iterations contract the error to ~0.85^400 — far below
	// the comparison band.
	ref := refPageRank(g, 400)
	var refSum, refMax float64
	for _, r := range ref {
		refSum += r
		if r > refMax {
			refMax = r
		}
	}

	got, err := ex.PageRank(tol)
	if err != nil {
		t.Fatal(err)
	}
	bound := 10 * float64(n) * tol / (1 - PageRankDamping)
	if math.Abs(got.SumRank-refSum) > bound {
		t.Fatalf("SumRank = %v, reference %v (|diff| %v > %v)", got.SumRank, refSum, math.Abs(got.SumRank-refSum), bound)
	}
	if math.Abs(got.MaxRank-refMax) > bound {
		t.Fatalf("MaxRank = %v, reference %v (bound %v)", got.MaxRank, refMax, bound)
	}
	if got.Iterations <= 0 || got.Tol != tol {
		t.Fatalf("reply metadata %+v implausible", got)
	}

	// The served kernel, rerun from a scratch set on the cached entry's
	// pinned view, reproduces the cached reply, and its score vector
	// (plain layout: original id space) is within the same band
	// elementwise.
	gen := ex.Cache().Current()
	if gen == nil {
		t.Fatal("no generation after a cacheable pagerank query")
	}
	checked := false
	gen.Range(func(k qcache.Key, v qcache.Value) bool {
		if k.Kind != qcache.KindPageRank {
			return true
		}
		s := newScratchSet(ex.cfg)
		if rerun := s.pagerankValue(gen.ID().(*snapmgr.View), PageRankArgs(tol)); rerun != v {
			t.Fatalf("cached pagerank %+v, served kernel on pinned view %+v", v, rerun)
		}
		if len(s.pr.Rank) != n {
			t.Fatalf("served rank vector has %d entries, want %d", len(s.pr.Rank), n)
		}
		for i, r := range s.pr.Rank {
			if math.Abs(r-ref[i]) > bound {
				t.Fatalf("rank[%d] = %v, reference %v (bound %v)", i, r, ref[i], bound)
			}
		}
		checked = true
		return true
	})
	if !checked {
		t.Fatal("pagerank entry missing from the generation")
	}

	// Repeat query at the same tolerance hits the cache and answers
	// identically.
	again, err := ex.PageRank(tol)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatalf("cache-hit pagerank %+v differs from miss %+v", again, got)
	}
	if ex.Cache().Counters().Hits == 0 {
		t.Fatal("repeat pagerank did not hit the cache")
	}
}

// TestNewKindsLayoutEquivalence extends the cross-layout guarantee to
// the analytics kinds: clustering, k-hop and PageRank answer
// bit-identically under every storage layout (integer counts; float
// mean and rank additions in original-id order everywhere). Repeated
// after ingest/refresh churn to exercise each layout's delta path.
func TestNewKindsLayoutEquivalence(t *testing.T) {
	const scale, seed = 9, 13
	layouts := []snapmgr.Layout{
		snapmgr.LayoutPlain, snapmgr.LayoutDegree, snapmgr.LayoutBFS,
		snapmgr.LayoutRCM, snapmgr.LayoutCompressed,
	}
	exs := make([]*Executor, len(layouts))
	for i, l := range layouts {
		exs[i] = New(newLayoutManager(t, scale, seed, l), Config{Undirected: true})
	}
	const tol = 1e-9
	n := 1 << scale

	check := func(round int) {
		t.Helper()
		wantCl, err := exs[0].Clustering()
		if err != nil {
			t.Fatal(err)
		}
		wantPR, err := exs[0].PageRank(tol)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range layouts[1:] {
			cl, err := exs[i+1].Clustering()
			if err != nil {
				t.Fatal(err)
			}
			if cl.Triangles != wantCl.Triangles || cl.Counted != wantCl.Counted || cl.AvgLocal != wantCl.AvgLocal {
				t.Fatalf("round %d %v: Clustering = %+v, want %+v (bit-identical)", round, l, cl, wantCl)
			}
			pr, err := exs[i+1].PageRank(tol)
			if err != nil {
				t.Fatal(err)
			}
			if pr != wantPR {
				t.Fatalf("round %d %v: PageRank = %+v, plain %+v (bit-identical)", round, l, pr, wantPR)
			}
		}
		for _, src := range []uint32{0, 3, 101, 511} {
			for _, k := range []uint32{0, 1, 2, 5, maxKHop} {
				want, err := exs[0].KHop(src, k)
				if err != nil {
					t.Fatal(err)
				}
				for i, l := range layouts[1:] {
					got, err := exs[i+1].KHop(src, k)
					if err != nil {
						t.Fatal(err)
					}
					if got.Reached != want.Reached {
						t.Fatalf("round %d %v: KHop(%d,%d) = %d, want %d",
							round, l, src, k, got.Reached, want.Reached)
					}
				}
			}
		}
	}
	check(0)
	r := xrand.New(41)
	for round := 1; round <= 2; round++ {
		var batch []edge.Update
		for i := 0; i < 40; i++ {
			batch = append(batch, edge.Update{
				Edge: edge.Edge{U: r.Uint32n(uint32(n)), V: r.Uint32n(uint32(n)), T: r.Uint32n(50)},
				Op:   edge.Insert,
			})
		}
		batch = stream.Mirror(batch)
		for _, ex := range exs {
			if _, err := ex.Ingest(0, batch); err != nil {
				t.Fatal(err)
			}
			ex.Manager().Refresh(0)
		}
		check(round)
	}
}

// TestNewKindsSteadyStateZeroAlloc extends the serving-layer allocation
// guard to the analytics kinds: at the serving config (Workers = 1,
// cache off) warmed clustering, k-hop, and PageRank queries allocate
// zero objects per request — triangle arena, depth-limited frontier,
// and PageRank iterates all live in the pooled scratch, and every
// hook is bound once at pool construction.
func TestNewKindsSteadyStateZeroAlloc(t *testing.T) {
	mgr, _ := newManager(t, 9, 37)
	ex := New(mgr, Config{Undirected: true, Workers: 1, MaxConcurrent: 1})

	warm := func() {
		if _, err := ex.Clustering(); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.KHop(1, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.PageRank(1e-4); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()

	if n := testing.AllocsPerRun(10, func() {
		if _, err := ex.Clustering(); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state clustering query allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ex.KHop(1, 3); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state khop query allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := ex.PageRank(1e-4); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state pagerank query allocates %.1f objects/op, want 0", n)
	}
}

// TestNewKindsCacheHitZeroAlloc extends the cache-hit allocation guard:
// once cached, the analytics kinds answer repeats without allocating —
// the reply is built by value from the generation's entry.
func TestNewKindsCacheHitZeroAlloc(t *testing.T) {
	mgr, _ := newManager(t, 9, 41)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 64 << 20})

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

	if n := testing.AllocsPerRun(50, func() {
		if _, err := ex.Clustering(); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("cache-hit clustering allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := ex.KHop(1, 3); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("cache-hit khop allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := ex.PageRank(0); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("cache-hit pagerank allocates %.1f objects/op, want 0", n)
	}
}
