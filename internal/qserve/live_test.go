package qserve

import (
	"errors"
	"sync"
	"testing"

	"snapdyn/internal/cc"
	"snapdyn/internal/dynconn/conntest"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// TestLiveConnectivityAgreesWithSnapshots is the ISSUE's consistency
// oracle: drive churn (inserts and deletes, including tree-edge
// deletions — any alive edge can be picked, tree or not) through the
// ingest path, and after every refresh demand that the dynamic forest
// agrees exactly with the published snapshot's component structure. The
// snapshot path (cc label propagation) is the oracle; the forest is the
// system under test.
func TestLiveConnectivityAgreesWithSnapshots(t *testing.T) {
	mgr, _ := newManager(t, 8, 61)
	ex := New(mgr, Config{Undirected: true})
	ex.EnableLive()
	n := uint32(ex.NumVertices())

	r := xrand.New(7)
	// alive tracks only edges this test inserted, so deletes name exact
	// tuples the store can match; unique T keeps multiplicities aligned
	// between the tuple-matching store and the endpoint-matching forest.
	var alive []edge.Edge
	nextT := uint32(1 << 20)

	for round := 0; round < 8; round++ {
		var batch []edge.Update
		// Deletes first, drawn from edges alive before this round.
		dels := 20
		if dels > len(alive) {
			dels = len(alive)
		}
		for i := 0; i < dels; i++ {
			j := int(r.Uint32n(uint32(len(alive))))
			e := alive[j]
			alive[j] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			batch = append(batch, edge.Update{Edge: e, Op: edge.Delete})
		}
		for i := 0; i < 30; i++ {
			u, v := r.Uint32n(n), r.Uint32n(n)
			if u == v {
				continue
			}
			e := edge.Edge{U: u, V: v, T: nextT}
			nextT++
			alive = append(alive, e)
			batch = append(batch, edge.Update{Edge: e, Op: edge.Insert})
		}
		if _, err := ex.Ingest(1, stream.Mirror(batch)); err != nil {
			t.Fatal(err)
		}

		// Quiesce: publish a snapshot containing exactly the applied
		// updates, then compare component structure.
		mgr.Refresh(0)
		snap, err := ex.Components()
		if err != nil {
			t.Fatal(err)
		}
		if live := ex.Live().Components(); live != snap.Components {
			t.Fatalf("round %d: live forest has %d components, snapshot %d", round, live, snap.Components)
		}
		for i := 0; i < 25; i++ {
			u, v := r.Uint32n(n), r.Uint32n(n)
			lr, err := ex.ConnectedLive(u, v)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := ex.Connected(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Connected != sr.Connected {
				t.Fatalf("round %d: ConnectedLive(%d,%d) = %v, snapshot says %v", round, u, v, lr.Connected, sr.Connected)
			}
			if !lr.Live {
				t.Fatalf("round %d: live reply not flagged live: %+v", round, lr)
			}
			if u != v && lr.Hops != -1 {
				t.Fatalf("round %d: live reply claims a hop count: %+v", round, lr)
			}
		}
	}
}

// TestLiveFreshness checks the headline property: a live query issued
// after an Ingest ack observes the batch with no refresh in between,
// while the snapshot path still serves the stale view.
func TestLiveFreshness(t *testing.T) {
	mgr, _ := newManager(t, 6, 67)
	ex := New(mgr, Config{Undirected: true})
	ex.EnableLive()
	n := uint32(ex.NumVertices())

	// Find a disconnected pair on the current snapshot.
	var u, v uint32
	found := false
	r := xrand.New(3)
	for i := 0; i < 10000 && !found; i++ {
		u, v = r.Uint32n(n), r.Uint32n(n)
		sr, err := ex.Connected(u, v)
		if err != nil {
			t.Fatal(err)
		}
		found = !sr.Connected
	}
	if !found {
		t.Skip("snapshot is fully connected; no pair to join")
	}

	link := []edge.Update{{Edge: edge.Edge{U: u, V: v, T: 1 << 21}, Op: edge.Insert}}
	if _, err := ex.Ingest(1, stream.Mirror(link)); err != nil {
		t.Fatal(err)
	}

	lr, err := ex.ConnectedLive(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Connected {
		t.Fatal("live query did not observe the acknowledged ingest")
	}
	sr, err := ex.Connected(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Connected {
		t.Fatal("snapshot query observed an unpublished update (no refresh ran)")
	}
	mgr.Refresh(0)
	sr, err = ex.Connected(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Connected {
		t.Fatal("published snapshot is missing the ingested edge")
	}
}

// TestLiveUnsupportedUntilEnabled pins the contract: live connectivity
// fails with ErrUnsupported before EnableLive — except the u == v quick
// answer, which needs no forest.
func TestLiveUnsupportedUntilEnabled(t *testing.T) {
	mgr, _ := newManager(t, 6, 71)
	ex := New(mgr, Config{Undirected: true})

	if _, err := ex.ConnectedLive(1, 2); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("ConnectedLive before EnableLive: err = %v, want ErrUnsupported", err)
	}
	r, err := ex.ConnectedLive(5, 5)
	if err != nil {
		t.Fatalf("reflexive live query needs no forest, got %v", err)
	}
	if !r.Connected || r.Hops != 0 {
		t.Fatalf("reflexive live reply %+v", r)
	}

	ex.EnableLive()
	if _, err := ex.ConnectedLive(1, 2); err != nil {
		t.Fatalf("ConnectedLive after EnableLive: %v", err)
	}
}

// TestLiveNotCachedAndZeroAlloc pins two guarantees at once: live
// answers never touch the result cache (the forest mutates continuously
// and is pinned to no snapshot), and the steady-state live query path —
// admission, two root walks under an RLock, reply by value — allocates
// nothing.
func TestLiveNotCachedAndZeroAlloc(t *testing.T) {
	mgr, _ := newManager(t, 8, 73)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 8 << 20})
	ex.EnableLive()

	res, err := ex.Query(SpecConnected, Args{A: 1, B: 2, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheLive {
		t.Fatalf("live query disposition = %v, want CacheLive", res.Cache)
	}
	if _, err := ex.ConnectedLive(1, 2); err != nil {
		t.Fatal(err)
	}
	if c := ex.Cache().Counters(); c.Hits != 0 || c.Misses != 0 || c.Bytes != 0 {
		t.Fatalf("live queries touched the cache: %+v", c)
	}

	if n := testing.AllocsPerRun(100, func() {
		if _, err := ex.ConnectedLive(1, 2); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state live query allocates %.1f objects/op, want 0", n)
	}
}

// TestLiveConnHammer interleaves live queries with gated ingest and
// refreshes under the race detector: two ingesters churning disjoint
// vertex stripes (so their alive-lists and timestamps never collide),
// three queriers mixing live and snapshot reads, one refresher. The
// values read mid-flight are unordered and unchecked; the test's
// assertions are the race detector itself plus exact live/snapshot
// agreement after the final quiesce.
func TestLiveConnHammer(t *testing.T) {
	mgr, _ := newManager(t, 8, 79)
	ex := New(mgr, Config{Undirected: true, MaxConcurrent: 4, MaxQueue: 1 << 20})
	ex.EnableLive()
	n := uint32(ex.NumVertices())

	const rounds = 60
	var wg, refWG sync.WaitGroup
	for ing := 0; ing < 2; ing++ {
		wg.Add(1)
		go func(stripe uint32) {
			defer wg.Done()
			// Stripe s owns vertices [s*n/2, (s+1)*n/2) and timestamps
			// congruent to s mod 2 — no cross-goroutine tuple collisions.
			lo, span := stripe*n/2, n/2
			r := xrand.New(uint64(100 + stripe))
			var alive []edge.Edge
			nextT := uint32(1<<22) + stripe
			for i := 0; i < rounds; i++ {
				var batch []edge.Update
				if len(alive) > 0 && r.Uint32n(3) == 0 {
					j := int(r.Uint32n(uint32(len(alive))))
					e := alive[j]
					alive[j] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
					batch = append(batch, edge.Update{Edge: e, Op: edge.Delete})
				}
				for k := 0; k < 5; k++ {
					u, v := lo+r.Uint32n(span), lo+r.Uint32n(span)
					if u == v {
						continue
					}
					e := edge.Edge{U: u, V: v, T: nextT}
					nextT += 2
					alive = append(alive, e)
					batch = append(batch, edge.Update{Edge: e, Op: edge.Insert})
				}
				if _, err := ex.Ingest(1, stream.Mirror(batch)); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint32(ing))
	}
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			for i := 0; i < 4*rounds; i++ {
				u, v := r.Uint32n(n), r.Uint32n(n)
				switch i % 4 {
				case 0:
					if _, err := ex.ConnectedLive(u, v); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := ex.Connected(u, v); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := ex.Components(); err != nil {
						t.Error(err)
						return
					}
				default:
					ex.Live().Components()
				}
			}
		}(uint64(200 + q))
	}
	done := make(chan struct{})
	refWG.Add(1)
	go func() {
		defer refWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				mgr.Refresh(0)
			}
		}
	}()
	wg.Wait()
	close(done)
	refWG.Wait()

	// Quiesce: one final refresh, then the forest and the snapshot must
	// agree exactly.
	mgr.Refresh(0)
	snap, err := ex.Components()
	if err != nil {
		t.Fatal(err)
	}
	if live := ex.Live().Components(); live != snap.Components {
		t.Fatalf("after quiesce: live forest has %d components, snapshot %d", live, snap.Components)
	}
	r := xrand.New(5)
	for i := 0; i < 50; i++ {
		u, v := r.Uint32n(n), r.Uint32n(n)
		lr, err := ex.ConnectedLive(u, v)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := ex.Connected(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Connected != sr.Connected {
			t.Fatalf("after quiesce: ConnectedLive(%d,%d) = %v, snapshot %v", u, v, lr.Connected, sr.Connected)
		}
	}
}

// TestLiveModelConcurrentIngest is the live index's model test: four
// writers ingest concurrently, so batches reconcile in an order other
// than the one they reached the store in, beside a refresher. Each
// writer's churn (conntest.Writer) mixes parallel copies, deletes to
// zero and back inside and across batches, deletes of absent keys,
// self-loops and tree-edge deletes with and without a surviving copy.
// At every quiesce the forest must partition every vertex exactly as
// the components of the served store do, with every tree edge live.
func TestLiveModelConcurrentIngest(t *testing.T) {
	n := 1 << 8
	// A sparse start (two edges per vertex) leaves many components for
	// the churn to join and split.
	edges, err := rmat.Generate(0, rmat.PaperParams(8, 2*n, 50, 83))
	if err != nil {
		t.Fatal(err)
	}
	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 8*n, 0, 83))
	store.ApplyBatch(0, stream.Mirror(stream.Inserts(edges)))
	mgr := snapmgr.New(0, store)
	ex := New(mgr, Config{Undirected: true})
	ex.EnableLive()
	const writers = 4
	ws := make([]*conntest.Writer, writers)
	for w := range ws {
		ws[w] = conntest.NewWriter(uint64(300+w), n, w, writers, edges)
	}
	for phase := 0; phase < 3; phase++ {
		var wg sync.WaitGroup
		done := make(chan struct{})
		go func() {
			for {
				select {
				case <-done:
					return
				default:
					mgr.Refresh(0)
				}
			}
		}()
		for _, w := range ws {
			wg.Add(1)
			go func(w *conntest.Writer) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := ex.Ingest(1, w.Batch()); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(done)

		want := conntest.Labels(mgr.Store())
		if err := conntest.SamePartition(ex.Live().Labels(nil), want); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		if err := ex.Live().CheckInvariants(); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
	}
}

// TestLiveDirectedPrivateStore pins the directed engine's live index:
// its served store has no in-arcs to search, so the forest keeps a
// private store, and at quiesce it agrees with the weak connectivity of
// the published snapshot.
func TestLiveDirectedPrivateStore(t *testing.T) {
	n := 1 << 8
	edges, err := rmat.Generate(0, rmat.PaperParams(8, 2*n, 50, 89))
	if err != nil {
		t.Fatal(err)
	}
	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 2*len(edges), 0, 89))
	store.ApplyBatch(0, stream.Inserts(edges))
	mgr := snapmgr.New(0, store)
	ex := New(mgr, Config{})
	ex.EnableLive()
	r := xrand.New(91)
	var arcs []edge.Edge // inserted by this test, still present
	for i := 0; i < 30; i++ {
		var batch []edge.Update
		if len(arcs) > 0 && i%3 == 0 {
			j := r.Intn(len(arcs))
			batch = append(batch, edge.Update{Edge: arcs[j], Op: edge.Delete})
			arcs = append(arcs[:j], arcs[j+1:]...)
		}
		for k := 0; k < 3; k++ {
			e := edge.Edge{U: r.Uint32n(uint32(n)), V: r.Uint32n(uint32(n)), T: uint32(1<<20 + 3*i + k)}
			arcs = append(arcs, e)
			batch = append(batch, edge.Update{Edge: e, Op: edge.Insert})
		}
		if _, err := ex.Ingest(1, batch); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Refresh(0)
	want := cc.Components(1, mgr.Current())
	if err := conntest.SamePartition(ex.Live().Labels(nil), want); err != nil {
		t.Fatal(err)
	}
	if err := ex.Live().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
