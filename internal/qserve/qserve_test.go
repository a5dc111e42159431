package qserve

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"snapdyn/internal/cc"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
	"snapdyn/internal/stream"
	"snapdyn/internal/traversal"
)

// newManager builds an undirected R-MAT instance behind a snapshot
// manager, returning the manager and the generated (unmirrored) edges.
func newManager(t *testing.T, scale int, seed uint64) (*snapmgr.Manager, []edge.Edge) {
	t.Helper()
	n := 1 << scale
	edges, err := rmat.Generate(0, rmat.PaperParams(scale, 8*n, 50, seed))
	if err != nil {
		t.Fatal(err)
	}
	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 4*len(edges), 0, seed))
	store.ApplyBatch(0, stream.Mirror(stream.Inserts(edges)))
	return snapmgr.New(0, store), edges
}

func TestQueriesMatchKernels(t *testing.T) {
	mgr, _ := newManager(t, 9, 7)
	ex := New(mgr, Config{Undirected: true})
	g := mgr.Current()

	for _, src := range []uint32{0, 3, 101, 511} {
		want := traversal.BFS(1, g, src)
		got, err := ex.BFS(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reached != want.Reached || got.Levels != want.Levels {
			t.Fatalf("BFS(%d) = %+v, want reached=%d levels=%d", src, got, want.Reached, want.Levels)
		}

		dist := sssp.Run(g, src, sssp.Options{Workers: 1})
		wantReached, wantMax := 0, int64(0)
		for _, d := range dist {
			if d != sssp.Inf {
				wantReached++
				if d > wantMax {
					wantMax = d
				}
			}
		}
		sp, err := ex.SSSP(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Reached != wantReached || sp.MaxDist != wantMax {
			t.Fatalf("SSSP(%d) = %+v, want reached=%d max=%d", src, sp, wantReached, wantMax)
		}
	}

	for _, q := range [][2]uint32{{0, 0}, {1, 2}, {5, 200}, {17, 400}} {
		wantHops := traversal.BFS(1, g, q[0]).Level[q[1]]
		wantConn := wantHops != traversal.NotVisited
		got, err := ex.Connected(q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.Connected != wantConn || got.Hops != wantHops {
			t.Fatalf("Connected%v = %+v, want (%v, %d)", q, got, wantConn, wantHops)
		}
	}

	comp := cc.Components(1, g)
	_, wantLargest := cc.Largest(1, comp)
	cr, err := ex.Components()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Components != cc.Count(comp) || cr.LargestSize != wantLargest {
		t.Fatalf("Components() = %+v, want count=%d largest=%d", cr, cc.Count(comp), wantLargest)
	}

	st := ex.Stats()
	if st.Vertices != g.N || st.Arcs != g.NumEdges() || st.Epoch != mgr.Epoch() {
		t.Fatalf("Stats() = %+v inconsistent with snapshot", st)
	}
}

func TestBadVertex(t *testing.T) {
	mgr, _ := newManager(t, 8, 3)
	ex := New(mgr, Config{Undirected: true})
	if _, err := ex.BFS(1 << 20); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("BFS out of range: err = %v, want ErrBadVertex", err)
	}
	if _, err := ex.SSSP(1<<20, 0); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("SSSP out of range: err = %v, want ErrBadVertex", err)
	}
	if _, err := ex.Connected(0, 1<<20); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("Connected out of range: err = %v, want ErrBadVertex", err)
	}
	c := ex.Counters()
	if c.Served != 3 {
		t.Fatalf("served = %d, want 3 (errors still release their slot)", c.Served)
	}
}

// TestAdmissionShedsBeyondQueue saturates MaxConcurrent+MaxQueue with
// blocked queries and asserts the next one is shed, not queued.
func TestAdmissionShedsBeyondQueue(t *testing.T) {
	mgr, _ := newManager(t, 8, 5)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 2, MaxQueue: 1})

	// Occupy both execution slots with queries blocked inside checkout
	// by holding the slots channel full from the outside first.
	ex.adm.slots <- struct{}{}
	ex.adm.slots <- struct{}{}

	// One waiter is admitted to the queue.
	done := make(chan error, 2)
	go func() {
		_, err := ex.BFS(0)
		done <- err
	}()
	// Wait until it is counted as waiting.
	for ex.Counters().Waiting == 0 {
		runtime.Gosched()
	}

	// The queue (MaxQueue=1) is full: the next query must shed.
	if _, err := ex.BFS(0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if c := ex.Counters(); c.Shed != 1 {
		t.Fatalf("shed = %d, want 1", c.Shed)
	}

	// Free the slots; the queued query completes fine.
	<-ex.adm.slots
	<-ex.adm.slots
	if err := <-done; err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
}

// TestScratchReuseAcrossEpochs publishes a new epoch between queries
// and asserts the pool still serves correct results from the same
// scratch set (kernel scratches self-revalidate).
func TestScratchReuseAcrossEpochs(t *testing.T) {
	mgr, edges := newManager(t, 9, 11)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1})

	if _, err := ex.BFS(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SSSP(0, 0); err != nil {
		t.Fatal(err)
	}

	// Mutate and republish: delete a batch of arcs, insert fresh ones.
	var batch []edge.Update
	for i := 0; i < 200; i++ {
		e := edges[i*7%len(edges)]
		batch = append(batch,
			edge.Update{Edge: e, Op: edge.Delete},
			edge.Update{Edge: edge.Edge{U: e.V, V: e.U, T: e.T}, Op: edge.Delete})
	}
	mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(0, batch) })
	before := mgr.Epoch()
	mgr.Refresh(0)
	if mgr.Epoch() != before+1 {
		t.Fatalf("epoch = %d, want %d", mgr.Epoch(), before+1)
	}

	g := mgr.Current()
	want := traversal.BFS(1, g, 0)
	got, err := ex.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reached != want.Reached || got.Levels != want.Levels || got.Epoch != before+1 {
		t.Fatalf("post-epoch BFS = %+v, want reached=%d levels=%d epoch=%d",
			got, want.Reached, want.Levels, before+1)
	}

	dist := sssp.Run(g, 0, sssp.Options{Workers: 1})
	wantReached := 0
	for _, d := range dist {
		if d != sssp.Inf {
			wantReached++
		}
	}
	sp, err := ex.SSSP(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Reached != wantReached {
		t.Fatalf("post-epoch SSSP reached = %d, want %d", sp.Reached, wantReached)
	}
}

// TestSteadyStateQueriesDoNotAllocateScratch is the serving-layer
// allocation guard: after warm-up, BFS, SSSP, and connectivity queries
// through the executor allocate zero objects per request — the kernel
// scratch comes from the pool, the admission path is channel-only, and
// replies are returned by value.
func TestSteadyStateQueriesDoNotAllocateScratch(t *testing.T) {
	mgr, _ := newManager(t, 10, 13)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1})

	warm := func() {
		if _, err := ex.BFS(1); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.SSSP(1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Connected(1, 2); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()

	if n := testing.AllocsPerRun(20, func() {
		if _, err := ex.BFS(1); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state BFS query allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ex.SSSP(1, 0); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state SSSP query allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ex.Connected(1, 2); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state connectivity query allocates %.1f objects/op, want 0", n)
	}
}

// TestSSSPAfterGrowingRefreshDoesNotAllocate is the cold half of the
// guard above: the first SSSP on a newly published snapshot re-chooses
// the pooled scratch's bucket width, and that must stay inside the
// buffers the scratch already owns even when the refresh added arcs —
// the kernel reads the new snapshot's arcs in place, so a refresh never
// costs a query fresh garbage.
func TestSSSPAfterGrowingRefreshDoesNotAllocate(t *testing.T) {
	mgr, _ := newManager(t, 10, 13)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1})
	for i := 0; i < 2; i++ { // size the buffers and the bucket ring
		if _, err := ex.SSSP(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fresh, err := rmat.Generate(0, rmat.PaperParams(10, 256, 50, 99))
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	for round := 0; round < 4; round++ {
		before := mgr.Current()
		batch := stream.Mirror(stream.Inserts(fresh[round*64 : (round+1)*64]))
		mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(0, batch) })
		mgr.Refresh(0)
		if g := mgr.Current(); g == before || g.NumEdges() <= before.NumEdges() {
			t.Fatalf("round %d: refresh did not publish a larger snapshot", round)
		}
		// Quiesce the runtime first, so the window counts only the
		// query. Two runtime goroutines allocate on their own schedule
		// and, with one P, run whenever the query yields: the unique-map
		// cleanup that every GC cycle wakes (a cycle started by this
		// round's ingest garbage put its 2 objects in the window), and
		// the background scavenger, whose sleep timer can grow the timer
		// heap (1 object). FreeOSMemory finishes a GC cycle, which lets
		// the cleanup run while this goroutine waits, and returns all
		// free memory at once, which leaves the scavenger nothing to
		// wake for; an allocation-free query starts no other cycle.
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		_, err := ex.SSSP(1, 0)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if n := ms.Mallocs - mallocs; n != 0 {
			t.Fatalf("round %d: first SSSP after a growing refresh allocates %d objects, want 0", round, n)
		}
	}
}

// TestConcurrentQueriesUnderIngest hammers the executor from many
// goroutines while the ingest side applies batches and refreshes —
// the qserve half of the serving -race guarantee.
func TestConcurrentQueriesUnderIngest(t *testing.T) {
	mgr, edges := newManager(t, 9, 17)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 4, MaxQueue: 64})

	const queriers = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			src := uint32(q)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch i % 3 {
				case 0:
					_, err = ex.BFS(src % 512)
				case 1:
					_, err = ex.SSSP(src%512, 0)
				default:
					_, err = ex.Connected(src%512, (src+7)%512)
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("query failed: %v", err)
					return
				}
				src = src*1664525 + 1013904223
			}
		}(q)
	}

	for round := 0; round < 20; round++ {
		var batch []edge.Update
		for i := 0; i < 100; i++ {
			e := edges[(round*100+i)%len(edges)]
			batch = append(batch,
				edge.Update{Edge: edge.Edge{U: e.U, V: e.V, T: e.T + 1}, Op: edge.Insert},
				edge.Update{Edge: edge.Edge{U: e.V, V: e.U, T: e.T + 1}, Op: edge.Insert})
		}
		mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(0, batch) })
		mgr.Refresh(0)
	}
	close(stop)
	wg.Wait()
}

// TestComponentsPooledZeroAlloc pins the dst-slice components path: the
// scratch pool owns the label and census buffers, so steady-state
// component queries allocate nothing at Workers=1 (parallel reductions
// allocate fan-out closures, so the guarantee is for the serial path).
func TestComponentsPooledZeroAlloc(t *testing.T) {
	mgr, _ := newManager(t, 9, 17)
	ex := New(mgr, Config{Undirected: true, Workers: 1, MaxConcurrent: 1})

	// Correctness first: the pooled reply matches the one-shot kernels.
	g := mgr.Current()
	comp := cc.Components(1, g)
	_, wantLargest := cc.Largest(1, comp)
	reply, err := ex.Components()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Components != cc.Count(comp) || reply.LargestSize != wantLargest {
		t.Fatalf("pooled components = %+v, want %d components / largest %d",
			reply, cc.Count(comp), wantLargest)
	}

	if _, err := ex.Components(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ex.Components(); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state components query allocates %.1f objects/op, want 0", n)
	}
}

// TestTraversalScratchFootprint pins the bytes per vertex one warm
// scratch set holds for the BFS-shaped queries (bfs, connected, khop),
// whose replies are counts and one target's level: the level array and
// its visited bitmap, the two frontiers with their bitmaps, the
// discovery bucket and the prefix-sum buffer. No parent array: a set
// that also held one, 4 B per vertex written on every discovery, would
// exceed the bound.
func TestTraversalScratchFootprint(t *testing.T) {
	mgr, _ := newManager(t, 14, 29)
	v := mgr.View()
	n := int64(v.NumVertices())
	s := newScratchSet(Config{Undirected: true}.WithDefaults())
	for _, src := range []uint64{0, 17, 999, 4000, 16000} {
		s.bfsValue(v, Args{A: src})
		s.connValue(v, Args{A: src, B: 7})
		s.khopValue(v, Args{A: src, B: 2})
	}
	s.one[0] = nil
	size := s.trav.SizeBytes() + s.res.SizeBytes()
	t.Logf("n=%d: traversal arena and result hold %d B (%.1f B/vertex)", n, size, float64(size)/float64(n))
	if s.res.Parent != nil || size > traversalFootprintPerVertex*n {
		t.Fatalf("traversal arena and result hold %d B (parent %v): want no parent array and <= %d B/vertex",
			size, s.res.Parent != nil, traversalFootprintPerVertex)
	}
}

// traversalFootprintPerVertex bounds a warm traversal arena and result:
// the level array (4), the two frontier queues (8) and the prefix-sum
// buffer (8), each sized to n, plus 2 for the visited and frontier
// bitmaps and the discovery buckets. A parent array would add 4.
const traversalFootprintPerVertex = 4 + 8 + 8 + 2
