package shard

import (
	"testing"

	"snapdyn/internal/qserve"
	"snapdyn/internal/stream"
	"snapdyn/internal/traversal"
)

// pullScratch returns a scratch whose traversals may run pull levels,
// as an undirected executor's pooled scratch does.
func pullScratch() *Scratch { return &Scratch{pull: true} }

// checkLevels compares a scatter-gather level array with the single
// engine's, vertex by vertex.
func checkLevels(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: level[%d] = %d, want %d", what, v, got[v], want[v])
		}
	}
}

// TestScatterGatherBFSPullEquivalence is the undirected BFS equivalence
// with pull levels allowed: level arrays, reached and level counts match
// the single engine for every shard count, at scale 9 and at scale 12,
// where the frontier grows dense enough that pull levels must run.
func TestScatterGatherBFSPullEquivalence(t *testing.T) {
	for _, scale := range []int{9, 12} {
		n, ups := testUpdates(t, scale, 8, 11)
		ups = stream.Mirror(ups)
		ref := refSnapshot(n, ups)
		var res traversal.Result
		sc := traversal.NewScratch()
		for _, p := range shardCounts {
			views := testFleet(n, p, ups).View(nil)
			ssc := pullScratch()
			pulled := 0
			for _, src := range []uint32{0, 1, 3, uint32(n / 2), uint32(n - 1)} {
				traversal.Run(ref, []uint32{src}, traversal.Options{Workers: 2, Strategy: traversal.DirectionOpt}, sc, &res)
				level, reached, levels := ssc.BFS(views, src)
				if reached != res.Reached || levels != res.Levels {
					t.Fatalf("scale=%d shards=%d src=%d: (reached,levels) = (%d,%d), want (%d,%d)",
						scale, p, src, reached, levels, res.Reached, res.Levels)
				}
				checkLevels(t, "bfs", level, res.Level)
				pulled += ssc.pullLevels
			}
			if scale >= 12 && pulled == 0 {
				t.Fatalf("scale=%d shards=%d: no pull level ran", scale, p)
			}
		}
	}
}

// levelTargets picks st-connectivity targets from a full BFS level
// array: one vertex in the first level, one in the middle level, one in
// the last, and one unreachable vertex when there is any.
func levelTargets(level []int32, levels int) []uint32 {
	want := []int32{1, int32(levels) / 2, int32(levels) - 1, NotVisited}
	var out []uint32
	for _, l := range want {
		for v, lv := range level {
			if lv == l {
				out = append(out, uint32(v))
				break
			}
		}
	}
	return out
}

// TestScatterGatherKHopSTConnPullEquivalence checks KHop's depth cut
// and STConnected's early exit against traversal.Run on the single
// reference snapshot, with pull levels allowed, for every shard count.
func TestScatterGatherKHopSTConnPullEquivalence(t *testing.T) {
	n, ups := testUpdates(t, 12, 8, 17)
	ups = stream.Mirror(ups)
	ref := refSnapshot(n, ups)
	var res traversal.Result
	sc := traversal.NewScratch()
	dirop := traversal.Options{Workers: 2, Strategy: traversal.DirectionOpt}
	srcs := []uint32{3, uint32(n / 3)}

	full := map[uint32][]int32{}
	fullLevels := map[uint32]int{}
	for _, src := range srcs {
		traversal.Run(ref, []uint32{src}, dirop, sc, &res)
		full[src] = append([]int32(nil), res.Level...)
		fullLevels[src] = res.Levels
	}

	for _, p := range shardCounts {
		views := testFleet(n, p, ups).View(nil)
		ssc := pullScratch()
		pulled := 0
		for _, src := range srcs {
			for k := int32(1); k <= 3; k++ {
				opt := dirop
				opt.Hooks.OnLevelEnd = func(level int32, _ int) bool { return level < k }
				traversal.Run(ref, []uint32{src}, opt, sc, &res)
				if got := ssc.KHop(views, src, k); got != res.Reached {
					t.Fatalf("shards=%d src=%d k=%d: KHop = %d, want %d", p, src, k, got, res.Reached)
				}
				checkLevels(t, "khop", ssc.level, res.Level)
				pulled += ssc.pullLevels
			}
			for _, tgt := range levelTargets(full[src], fullLevels[src]) {
				ok, hops := traversal.STConnected(2, ref, src, tgt)
				gotHops, gotOK := ssc.STConnected(views, src, tgt)
				if gotOK != ok || (ok && gotHops != hops) {
					t.Fatalf("shards=%d %d->%d: (%d,%v), want (%d,%v)", p, src, tgt, gotHops, gotOK, hops, ok)
				}
				pulled += ssc.pullLevels
			}
		}
		if pulled == 0 {
			t.Fatalf("shards=%d: no pull level ran", p)
		}
	}
}

// executorScratch runs one uncached BFS through ex (MaxConcurrent 1, so
// the pool holds exactly one arena) and returns the arena it used.
func executorScratch(t *testing.T, ex *Executor, src uint32) (qserve.BFSReply, *Scratch) {
	t.Helper()
	r, err := ex.BFS(src)
	if err != nil {
		t.Fatal(err)
	}
	s := <-ex.b.free
	ex.b.free <- s
	return r, s.sc
}

// TestExecutorPullFollowsUndirected checks the executor's wiring: an
// undirected executor's traversals run pull levels, a directed one's
// never do, and both agree with the single engine's reply.
func TestExecutorPullFollowsUndirected(t *testing.T) {
	for _, tc := range []struct {
		name       string
		undirected bool
	}{
		{"directed", false},
		{"undirected", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, ups := testUpdates(t, 12, 8, 29)
			if tc.undirected {
				ups = stream.Mirror(ups)
			}
			ref := refSnapshot(n, ups)
			var res traversal.Result
			for _, p := range []int{1, 2, 3} {
				ex := NewExecutor(testFleet(n, p, ups), qserve.Config{MaxConcurrent: 1, Undirected: tc.undirected})
				pulled := 0
				for _, src := range []uint32{0, 3, uint32(n / 2)} {
					r, sc := executorScratch(t, ex, src)
					traversal.Run(ref, []uint32{src}, traversal.Options{Workers: 2}, nil, &res)
					if r.Reached != res.Reached || r.Levels != res.Levels {
						t.Fatalf("shards=%d src=%d: (reached,levels) = (%d,%d), want (%d,%d)",
							p, src, r.Reached, r.Levels, res.Reached, res.Levels)
					}
					checkLevels(t, "executor bfs", sc.level, res.Level)
					pulled += sc.pullLevels
				}
				if tc.undirected != (pulled > 0) {
					t.Fatalf("shards=%d undirected=%v: %d pull levels", p, tc.undirected, pulled)
				}
			}
		})
	}
}

// TestFleetBFSAllocs pins the allocations of a warm, uncached fleet BFS
// with pull levels: the per-level fan-out's closure and goroutines, the
// same count a push-only traversal of the same levels costs. The warm
// threshold cache means no per-query degree scan runs.
func TestFleetBFSAllocs(t *testing.T) {
	n, ups := testUpdates(t, 12, 8, 11)
	ups = stream.Mirror(ups)
	for _, tc := range []struct {
		p   int
		max float64
	}{
		{1, 7},
		{2, 42},
	} {
		f := testFleet(n, tc.p, ups)
		ex := NewExecutor(f, qserve.Config{MaxConcurrent: 1, Undirected: true})
		if _, sc := executorScratch(t, ex, 3); sc.pullLevels == 0 {
			t.Fatalf("shards=%d: the pinned instance ran no pull level", tc.p)
		}
		a := testing.AllocsPerRun(30, func() {
			if _, err := ex.BFS(3); err != nil {
				t.Fatal(err)
			}
		})
		if a > tc.max {
			t.Fatalf("shards=%d: warm uncached BFS allocates %.1f objects/op, want <= %.0f", tc.p, a, tc.max)
		}
	}
}

// TestFleetSSSPComponentsAllocs pins the allocations of warm, uncached
// fleet SSSP and components. The levelled bucket ring and the label
// array are reused, so nothing scales with the graph. SSSP relaxes
// serially at every P, so it allocates nothing; components take cc's
// closure-free serial path at P=1 and allocate only the per-phase shard
// fan-out's closures and goroutines above it.
func TestFleetSSSPComponentsAllocs(t *testing.T) {
	n, ups := testUpdates(t, 12, 8, 11)
	ups = stream.Mirror(ups)
	for _, tc := range []struct {
		p              int
		ssspMax, ccMax float64
	}{
		{1, 0, 0},
		{2, 0, 22},
		{3, 0, 26},
	} {
		ex := NewExecutor(testFleet(n, tc.p, ups), qserve.Config{MaxConcurrent: 1, Undirected: true})
		srcs := []uint32{0, 3, 97, 1000, uint32(n / 2), uint32(n - 1)}
		for _, s := range srcs { // warm the buffers and ring
			if _, err := ex.SSSP(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		sssp := testing.AllocsPerRun(30, func() {
			if _, err := ex.SSSP(srcs[i%len(srcs)], 0); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if sssp > tc.ssspMax {
			t.Fatalf("shards=%d: warm uncached SSSP allocates %.1f objects/op, want <= %.0f", tc.p, sssp, tc.ssspMax)
		}
		comps := testing.AllocsPerRun(30, func() {
			if _, err := ex.Components(); err != nil {
				t.Fatal(err)
			}
		})
		if comps > tc.ccMax {
			t.Fatalf("shards=%d: warm uncached components allocates %.1f objects/op, want <= %.0f", tc.p, comps, tc.ccMax)
		}
	}
}

// TestFleetPageRankAllocs pins warm, uncached fleet PageRank at zero
// allocations per query at P=1, 2 and 3: the kernel runs serially
// over the pinned views from the pooled rank and next iterates, with no
// per-round fan-out.
func TestFleetPageRankAllocs(t *testing.T) {
	n, ups := testUpdates(t, 10, 8, 11)
	ups = stream.Mirror(ups)
	for _, p := range []int{1, 2, 3} {
		ex := NewExecutor(testFleet(n, p, ups), qserve.Config{MaxConcurrent: 1, Undirected: true})
		if _, err := ex.PageRank(0); err != nil { // size the iterates
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(10, func() {
			if _, err := ex.PageRank(0); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Fatalf("shards=%d: warm uncached PageRank allocates %.1f objects/op, want 0", p, a)
		}
	}
}
