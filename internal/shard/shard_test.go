package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/rmat"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
	"snapdyn/internal/stream"
	"snapdyn/internal/traversal"
)

// testUpdates generates a deterministic R-MAT insert stream.
func testUpdates(t testing.TB, scale, edgeFactor int, seed uint64) (int, []edge.Update) {
	t.Helper()
	n := 1 << scale
	edges, err := rmat.Generate(2, rmat.PaperParams(scale, edgeFactor*n, 1000, seed))
	if err != nil {
		t.Fatal(err)
	}
	return n, stream.Inserts(edges)
}

// refSnapshot applies the stream to a single tracked store and
// publishes one snapshot — the single-shard reference.
func refSnapshot(n int, ups []edge.Update) *csr.Graph {
	mgr := snapmgr.New(2, dyngraph.NewTracked(dyngraph.NewHybrid(n, len(ups), 0, 1)))
	mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(2, ups) })
	mgr.Refresh(2)
	return mgr.Current()
}

// testFleet builds a fleet over the same stream and refreshes it.
func testFleet(n, shards int, ups []edge.Update) *Fleet {
	f := New(n, Config{Shards: shards, Workers: 2, ExpectedEdges: len(ups)})
	f.Ingest(2, ups)
	f.Refresh(2)
	return f
}

var shardCounts = []int{1, 2, 3, 4, 8}

func TestFleetIngestRouting(t *testing.T) {
	n, ups := testUpdates(t, 8, 8, 42)
	ref := refSnapshot(n, ups)
	for _, p := range shardCounts {
		f := testFleet(n, p, ups)
		if got := f.NumEdges(); got != ref.NumEdges() {
			t.Fatalf("shards=%d: NumEdges = %d, want %d", p, got, ref.NumEdges())
		}
		views := f.View(nil)
		var arcs int64
		for s, v := range views {
			arcs += v.NumEdges()
			// Every arc in shard s's snapshot must leave an owned vertex,
			// and its span must match the reference adjacency.
			for u := 0; u < n; u++ {
				d := v.Degree(uint32(u))
				if d == 0 {
					continue
				}
				if f.Owner(uint32(u)) != s {
					t.Fatalf("shards=%d: shard %d holds %d arcs of non-owned vertex %d", p, s, d, u)
				}
				if want := ref.Degree(uint32(u)); d != want {
					t.Fatalf("shards=%d: degree(%d) = %d, want %d", p, u, d, want)
				}
			}
		}
		if arcs != ref.NumEdges() {
			t.Fatalf("shards=%d: snapshot arc union = %d, want %d", p, arcs, ref.NumEdges())
		}
	}
}

func TestScatterGatherBFSEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   uint64
		mirror bool
	}{
		{"directed", 7, false},
		{"undirected", 11, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, ups := testUpdates(t, 9, 8, tc.seed)
			if tc.mirror {
				ups = stream.Mirror(ups)
			}
			ref := refSnapshot(n, ups)
			var res traversal.Result
			sc := traversal.NewScratch()
			for _, p := range shardCounts {
				f := testFleet(n, p, ups)
				views := f.View(nil)
				ssc := NewScratch()
				for _, src := range []uint32{0, 1, uint32(n / 2), uint32(n - 1)} {
					traversal.Run(ref, []uint32{src}, traversal.Options{Workers: 2}, sc, &res)
					level, reached, levels := ssc.BFS(views, src)
					if reached != res.Reached || levels != res.Levels {
						t.Fatalf("shards=%d src=%d: (reached,levels) = (%d,%d), want (%d,%d)",
							p, src, reached, levels, res.Reached, res.Levels)
					}
					for v := 0; v < n; v++ {
						if level[v] != res.Level[v] {
							t.Fatalf("shards=%d src=%d: level[%d] = %d, want %d",
								p, src, v, level[v], res.Level[v])
						}
					}
				}
			}
		})
	}
}

func TestScatterGatherSSSPEquivalence(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 23)
	ref := refSnapshot(n, ups)
	refScratch := sssp.NewScratch()
	for _, p := range shardCounts {
		f := testFleet(n, p, ups)
		views := f.View(nil)
		ssc := NewScratch()
		// Heuristic delta (0), a tiny one (many sparse bands; labels stay
		// under 1000, so the ring never overflows — see
		// TestScatterGatherSSSPOverflow), and a large one (single band
		// per relaxation wave).
		for _, delta := range []int64{0, 3, 1 << 20} {
			for _, src := range []uint32{0, uint32(n / 3)} {
				want := sssp.Run(ref, src, sssp.Options{Workers: 2, Delta: delta, Scratch: refScratch})
				got := ssc.SSSP(views, src, sssp.LabelWeights, delta)
				for v := 0; v < n; v++ {
					if got[v] != want[v] {
						t.Fatalf("shards=%d delta=%d src=%d: dist[%d] = %d, want %d",
							p, delta, src, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestScatterGatherSSSPOverflow runs the single kernel's ring-overflow
// graphs through fleets at delta=1: weights far past the capped ring's
// 4096-band window spill relaxations into the overflow list, so the
// window jump (the ring drains while overflow remains) and the sweep
// that re-rings an overflow band before the scan can pass it both run.
func TestScatterGatherSSSPOverflow(t *testing.T) {
	const chain = 6000
	shortcut := make([]edge.Edge, 0, chain+2)
	for v := uint32(0); v < chain-1; v++ {
		shortcut = append(shortcut, edge.Edge{U: v, V: v + 1, T: 1})
	}
	shortcut = append(shortcut,
		edge.Edge{U: 0, V: chain, T: 5000},          // heavy shortcut into overflow
		edge.Edge{U: chain, V: chain + 1, T: 1},     // its continuation
		edge.Edge{U: chain - 1, V: chain + 1, T: 2}, // chain-side path, longer
	)
	for _, tc := range []struct {
		name  string
		n     int
		edges []edge.Edge
	}{
		{"ring overflow", 6, []edge.Edge{
			{U: 0, V: 1, T: 50_000}, {U: 1, V: 2, T: 120_000},
			{U: 0, V: 3, T: 250_000}, {U: 3, V: 4, T: 2},
			{U: 2, V: 4, T: 90_000}, {U: 0, V: 5, T: 1},
		}},
		{"overflow shortcut", chain + 2, shortcut},
	} {
		ref := csr.FromEdges(1, tc.n, tc.edges, true)
		want := sssp.Dijkstra(ref, 0, sssp.LabelWeights)
		ups := stream.Mirror(stream.Inserts(tc.edges))
		for _, p := range []int{1, 2, 3} {
			got := NewScratch().SSSP(testFleet(tc.n, p, ups).View(nil), 0, sssp.LabelWeights, 1)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s shards=%d: dist[%d] = %d, want %d", tc.name, p, v, got[v], want[v])
				}
			}
		}
	}
}

func TestScatterGatherComponentsEquivalence(t *testing.T) {
	// Generate over the low half of the id space only: the high half
	// stays isolated, so the labeling must handle many singleton
	// components alongside the R-MAT giant component.
	scale := 9
	n := 2 << scale
	_, ups := testUpdates(t, scale, 8, 91)
	ref := refSnapshot(n, ups)
	want := cc.Components(2, ref)
	for _, p := range shardCounts {
		f := testFleet(n, p, ups)
		got := NewScratch().Components(f.View(nil))
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("shards=%d: comp[%d] = %d, want %d", p, v, got[v], want[v])
			}
		}
	}
}

func TestSTConnected(t *testing.T) {
	n := 16
	ups := stream.Inserts([]edge.Edge{
		{U: 0, V: 1, T: 1}, {U: 1, V: 2, T: 1}, {U: 2, V: 3, T: 1},
		{U: 5, V: 6, T: 1},
	})
	for _, p := range []int{1, 2, 4} {
		f := testFleet(n, p, ups)
		sc := NewScratch()
		views := f.View(nil)
		if hops, ok := sc.STConnected(views, 0, 3); !ok || hops != 3 {
			t.Fatalf("shards=%d: 0->3 = (%d,%v), want (3,true)", p, hops, ok)
		}
		if _, ok := sc.STConnected(views, 0, 6); ok {
			t.Fatalf("shards=%d: 0->6 reported connected", p)
		}
		if _, ok := sc.STConnected(views, 3, 0); ok {
			t.Fatalf("shards=%d: directed 3->0 reported connected", p)
		}
	}
}

// TestExecutorParity runs the fleet executor and the single-shard
// executor over the same graph and compares every reply field that
// does not depend on the engine (epochs differ by construction).
func TestExecutorParity(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 5)
	mgr := snapmgr.New(2, dyngraph.NewTracked(dyngraph.NewHybrid(n, len(ups), 0, 1)))
	single := qserve.New(mgr, qserve.Config{})
	single.Ingest(2, ups)
	mgr.Refresh(2)

	f := testFleet(n, 4, ups)
	ex := NewExecutor(f, qserve.Config{})

	sb, err1 := single.BFS(3)
	fb, err2 := ex.BFS(3)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if sb.Reached != fb.Reached || sb.Levels != fb.Levels {
		t.Fatalf("BFS reply mismatch: single %+v fleet %+v", sb, fb)
	}

	ss, err1 := single.SSSP(3, 0)
	fs, err2 := ex.SSSP(3, 0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if ss.Reached != fs.Reached || ss.MaxDist != fs.MaxDist {
		t.Fatalf("SSSP reply mismatch: single %+v fleet %+v", ss, fs)
	}

	sco, err1 := single.Components()
	fco, err2 := ex.Components()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if sco.Components != fco.Components || sco.LargestSize != fco.LargestSize {
		t.Fatalf("components mismatch: single %+v fleet %+v", sco, fco)
	}

	sst, fst := single.Stats(), ex.Stats()
	if sst.Vertices != fst.Vertices || sst.Arcs != fst.Arcs || sst.MaxDegree != fst.MaxDegree {
		t.Fatalf("stats mismatch: single %+v fleet %+v", sst, fst)
	}

	if _, err := ex.BFS(uint32(n)); err != qserve.ErrBadVertex {
		t.Fatalf("out-of-range BFS err = %v, want ErrBadVertex", err)
	}
}

// TestShardHammer drives concurrent ingest, scatter-gather queries,
// and per-shard auto-refreshers at once — the race-detector stress for
// the gate-per-shard contract.
func TestShardHammer(t *testing.T) {
	n, ups := testUpdates(t, 9, 6, 77)
	seedEnd := len(ups) / 2
	// Trim so the streamed half splits into whole 256-update blocks:
	// the two ingesters then cover it exactly, no partial tail.
	ups = ups[:seedEnd+(len(ups)-seedEnd)/256*256]
	f := New(n, Config{Shards: 4, Workers: 2, ExpectedEdges: len(ups)})
	f.Ingest(2, ups[:seedEnd])
	f.Refresh(2)
	if !f.Start(snapmgr.Policy{MaxDirty: 64}) {
		t.Fatal("auto-refresh failed to start")
	}
	defer f.Stop()

	ex := NewExecutor(f, qserve.Config{MaxConcurrent: 4, MaxQueue: 64})
	var wg sync.WaitGroup
	// Two ingesters streaming the second half in small batches.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for lo := seedEnd + i*128; lo+128 <= len(ups); lo += 256 {
				f.Ingest(1, ups[lo:lo+128])
			}
		}(i)
	}
	// Three query workers hammering every query type.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				src := uint32((k*31 + i) % n)
				if _, err := ex.BFS(src); err != nil && err != qserve.ErrOverloaded {
					t.Error(err)
					return
				}
				if _, err := ex.SSSP(src, 0); err != nil && err != qserve.ErrOverloaded {
					t.Error(err)
					return
				}
				if _, err := ex.Connected(src, uint32((k+i)%n)); err != nil && err != qserve.ErrOverloaded {
					t.Error(err)
					return
				}
				if k%10 == 0 {
					if _, err := ex.Components(); err != nil && err != qserve.ErrOverloaded {
						t.Error(err)
						return
					}
					ex.Stats()
				}
			}
		}(i)
	}
	wg.Wait()

	// Quiesced: the live stores must have converged on the reference.
	ref := refSnapshot(n, ups)
	if got := f.NumEdges(); got != ref.NumEdges() {
		t.Fatalf("post-hammer NumEdges = %d, want %d", got, ref.NumEdges())
	}
}

// TestEpochMonotonePerShard asserts the per-shard epoch invariant the
// ROADMAP documents: each shard's epoch advances by exactly one per
// refresh, independently, and the fleet epoch is their sum.
func TestEpochMonotonePerShard(t *testing.T) {
	f := New(64, Config{Shards: 4, Workers: 1})
	base := make([]uint64, 4)
	for s := 0; s < 4; s++ {
		base[s] = f.Manager(s).Epoch()
	}
	// Refresh one shard directly: only its epoch moves.
	f.Manager(2).Refresh(1)
	for s := 0; s < 4; s++ {
		want := base[s]
		if s == 2 {
			want++
		}
		if got := f.Manager(s).Epoch(); got != want {
			t.Fatalf("shard %d epoch = %d, want %d", s, got, want)
		}
	}
	if got, want := f.Epoch(), base[0]+base[1]+base[2]+base[3]+1; got != want {
		t.Fatalf("fleet epoch = %d, want %d", got, want)
	}
	f.Refresh(2)
	if got, want := f.Epoch(), base[0]+base[1]+base[2]+base[3]+5; got != want {
		t.Fatalf("fleet epoch after full refresh = %d, want %d", got, want)
	}
}

// TestFleetWaitEpochDemandsTouchedShards: with every shard's triggers
// disabled, a fleet ack is published by demand alone, once per touched
// shard; an untouched shard is not refreshed, and a sum epoch beyond
// one publication per shard is refused at once.
func TestFleetWaitEpochDemandsTouchedShards(t *testing.T) {
	f := New(64, Config{Shards: 2, Workers: 1})
	if !f.Start(snapmgr.Policy{MaxDirty: 1 << 30, MaxAge: time.Hour}) {
		t.Fatal("Start returned false")
	}
	defer f.Stop()
	// A shard accounts its refresh just after publishing it, so the
	// counters may trail the wait by a moment.
	demanded := func(want [2]uint64) [2]uint64 {
		deadline := time.Now().Add(5 * time.Second)
		for {
			got := [2]uint64{f.Manager(0).Metrics().DemandTriggered, f.Manager(1).Metrics().DemandTriggered}
			if got == want || time.Now().After(deadline) {
				return got
			}
			time.Sleep(time.Millisecond)
		}
	}

	ack := f.IngestEpoch(1, stream.Inserts([]edge.Edge{{U: 0, V: 1, T: 1}, {U: 1, V: 0, T: 1}}))
	if _, err := f.WaitEpoch(ack, 5*time.Second); err != nil {
		t.Fatalf("WaitEpoch(%d): %v", ack, err)
	}
	if got := demanded([2]uint64{1, 1}); got != [2]uint64{1, 1} {
		t.Fatalf("demand refreshes per shard = %v, want [1 1]", got)
	}

	ack = f.IngestEpoch(1, stream.Inserts([]edge.Edge{{U: 2, V: 3, T: 1}})) // shard 0 only
	if _, err := f.WaitEpoch(ack, 5*time.Second); err != nil {
		t.Fatalf("WaitEpoch(%d): %v", ack, err)
	}
	if got := demanded([2]uint64{2, 1}); got != [2]uint64{2, 1} {
		t.Fatalf("demand refreshes per shard = %v, want [2 1]", got)
	}

	start := time.Now()
	e, err := f.WaitEpoch(f.Epoch()+3, 10*time.Second)
	if !errors.Is(err, snapmgr.ErrEpochWaitTimeout) || e != f.Epoch() {
		t.Fatalf("unreachable WaitEpoch = %d, %v; want %d and ErrEpochWaitTimeout", e, err, f.Epoch())
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("unreachable epoch held the waiter for %v", d)
	}
}

// TestCachedExecutorParity runs the fleet executor with the result
// cache on: hits must answer bit-identically to the uncached executor
// over the same fleet, a full fleet refresh must retire the generation
// (elementwise per-shard view identity), and the hit path must not
// allocate.
func TestCachedExecutorParity(t *testing.T) {
	n, ups := testUpdates(t, 9, 8, 13)
	f := testFleet(n, 4, ups)
	plain := NewExecutor(f, qserve.Config{MaxConcurrent: 1})
	cached := NewExecutor(f, qserve.Config{MaxConcurrent: 1, CacheBytes: 32 << 20})

	check := func(src uint32) {
		t.Helper()
		wb, err1 := plain.BFS(src)
		var cb qserve.BFSReply
		var err2 error
		for i := 0; i < 2; i++ { // second round answers from the cache
			cb, err2 = cached.BFS(src)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if cb.Reached != wb.Reached || cb.Levels != wb.Levels {
			t.Fatalf("cached BFS(%d) = %+v, uncached %+v", src, cb, wb)
		}
		ws, err1 := plain.SSSP(src, 0)
		var cs qserve.SSSPReply
		for i := 0; i < 2; i++ {
			cs, err2 = cached.SSSP(src, 0)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if cs.Reached != ws.Reached || cs.MaxDist != ws.MaxDist {
			t.Fatalf("cached SSSP(%d) = %+v, uncached %+v", src, cs, ws)
		}
		wc, err1 := plain.Connected(src, (src+3)%uint32(n))
		var cn qserve.ConnReply
		for i := 0; i < 2; i++ {
			cn, err2 = cached.Connected(src, (src+3)%uint32(n))
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if cn.Connected != wc.Connected || cn.Hops != wc.Hops {
			t.Fatalf("cached Connected(%d) = %+v, uncached %+v", src, cn, wc)
		}
	}
	check(3)
	check(101)
	ctr := cached.Cache().Counters()
	if ctr.Hits == 0 || ctr.Misses == 0 {
		t.Fatalf("cached executor saw no cache traffic: %+v", ctr)
	}
	gen := cached.Cache().Current()
	if gen == nil || gen.Len() == 0 {
		t.Fatal("no live generation after cached queries")
	}

	// Hit path allocates nothing — the scatter-gather pin set is pooled
	// and the cached value answers without touching the kernel arena.
	if a := testing.AllocsPerRun(30, func() {
		if _, err := cached.BFS(3); err != nil {
			t.Fatal(err)
		}
	}); a > 0 {
		t.Fatalf("sharded cache-hit BFS allocates %.1f objects/op, want 0", a)
	}

	// A fleet refresh swaps per-shard views: identity is elementwise, so
	// the generation retires and the same query recomputes — matching a
	// fresh uncached run on the new fleet state.
	f.Ingest(2, []edge.Update{
		{Edge: edge.Edge{U: 3, V: uint32(n - 1), T: 2000}, Op: edge.Insert},
		{Edge: edge.Edge{U: uint32(n - 1), V: 3, T: 2000}, Op: edge.Insert},
	})
	f.Refresh(2)
	misses := cached.Cache().Counters().Misses
	check(3)
	if cached.Cache().Current() == gen {
		t.Fatal("generation survived a fleet refresh")
	}
	if got := cached.Cache().Counters().Misses; got <= misses {
		t.Fatalf("post-refresh queries did not miss: %d then %d", misses, got)
	}
}
