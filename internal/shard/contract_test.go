package shard

import (
	"errors"
	"runtime"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// heldBackend blocks every Pin until hold is closed, so a query inside
// it keeps its admission slot the way a slow kernel would.
type heldBackend struct {
	qserve.Backend
	hold chan struct{}
}

func (h heldBackend) Pin(c *qcache.Cache) (any, uint64, *qcache.Gen) {
	<-h.hold
	return h.Backend.Pin(c)
}

// contractEngine is one row of the engine table the serving contract
// runs over: build returns an executor for cfg and a refresh that
// republishes after an ingest.
type contractEngine struct {
	name  string
	build func(cfg qserve.Config) (*qserve.Executor, func())
}

// contractEngines returns the single store and fleets of one and three
// shards, each over the mirrored stream ups on n vertices.
func contractEngines(n int, ups []edge.Update) []contractEngine {
	fleet := func(p int) func(cfg qserve.Config) (*qserve.Executor, func()) {
		return func(cfg qserve.Config) (*qserve.Executor, func()) {
			f := testFleet(n, p, ups)
			return NewExecutor(f, cfg).Executor, func() { f.Refresh(2) }
		}
	}
	return []contractEngine{
		{"single", func(cfg qserve.Config) (*qserve.Executor, func()) {
			mgr := snapmgr.New(2, dyngraph.NewTracked(dyngraph.NewHybrid(n, len(ups), 0, 1)))
			mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(2, ups) })
			mgr.Refresh(2)
			return qserve.New(mgr, cfg), func() { mgr.Refresh(2) }
		}},
		{"fleet P=1", fleet(1)},
		{"fleet P=3", fleet(3)},
	}
}

// TestEngineContract holds the single store and the fleet (one and
// three shards) to one serving contract: bad vertices, live queries
// before EnableLive, the reflexive quick answer, the cache disposition
// sequence across a real refresh, live dispositions, shedding past
// MaxConcurrent+MaxQueue, and cache counters that agree between Stats
// and Metrics.
func TestEngineContract(t *testing.T) {
	n, ups := testUpdates(t, 8, 4, 61)
	ups = stream.Mirror(ups)
	bridge := stream.Mirror([]edge.Update{{Edge: edge.Edge{U: 3, V: uint32(n - 1), T: 5000}, Op: edge.Insert}})
	for _, tc := range contractEngines(n, ups) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := qserve.Config{Undirected: true, MaxConcurrent: 2, MaxQueue: 1, CacheBytes: 8 << 20}
			ex, refresh := tc.build(cfg)

			bad := uint64(n)
			for _, q := range []struct {
				sp *qserve.Spec
				a  qserve.Args
			}{
				{qserve.SpecBFS, qserve.Args{A: bad}},
				{qserve.SpecSSSP, qserve.Args{A: bad}},
				{qserve.SpecConnected, qserve.Args{A: bad, B: 1}},
				{qserve.SpecConnected, qserve.Args{A: 1, B: bad}},
				{qserve.SpecConnected, qserve.Args{A: 1, B: bad, Live: true}},
				{qserve.SpecKHop, qserve.Args{A: bad, B: 2}},
			} {
				if _, err := ex.Query(q.sp, q.a); !errors.Is(err, qserve.ErrBadVertex) {
					t.Fatalf("%s%+v: err = %v, want ErrBadVertex", q.sp.Name(), q.a, err)
				}
			}

			live := qserve.Args{A: 1, B: 2, Live: true}
			if _, err := ex.Query(qserve.SpecConnected, live); !errors.Is(err, qserve.ErrUnsupported) {
				t.Fatalf("live query before EnableLive: err = %v, want ErrUnsupported", err)
			}
			for _, a := range []qserve.Args{{A: 5, B: 5}, {A: 5, B: 5, Live: true}} {
				r, err := ex.Query(qserve.SpecConnected, a)
				if err != nil || !r.Val.Flag || r.Val.N1 != 0 || r.Cache != qserve.CacheBypass {
					t.Fatalf("reflexive %+v: %+v, %v; want connected at 0 hops, bypass", a, r, err)
				}
			}

			want := []qserve.CacheState{qserve.CacheMiss, qserve.CacheHit, qserve.CacheMiss}
			var first qserve.Result
			for i, w := range want {
				if i == 2 {
					if _, err := ex.Ingest(2, bridge); err != nil {
						t.Fatal(err)
					}
					refresh()
				}
				r, err := ex.Query(qserve.SpecBFS, qserve.Args{A: 3})
				if err != nil {
					t.Fatal(err)
				}
				if r.Cache != w {
					t.Fatalf("query %d: disposition %v, want %v", i, r.Cache, w)
				}
				if i == 0 {
					first = r
				} else if i == 1 && r.Val.N1 != first.Val.N1 {
					t.Fatalf("hit reached %d, miss %d", r.Val.N1, first.Val.N1)
				}
			}

			ex.EnableLive()
			if r, err := ex.Query(qserve.SpecConnected, live); err != nil || r.Cache != qserve.CacheLive || r.Val.N1 != -1 {
				t.Fatalf("live query: %+v, %v; want live disposition, hops -1", r, err)
			}

			// Two queries hold both slots inside the backend, one waits in
			// the queue; the next is shed.
			held := heldBackend{ex.Backend(), make(chan struct{})}
			hx := qserve.NewExecutor(held, cfg)
			quick := qserve.Args{A: 1, B: 1}
			done := make(chan error, 3)
			for i := 0; i < 3; i++ {
				go func() {
					_, err := hx.Query(qserve.SpecConnected, quick)
					done <- err
				}()
			}
			for c := hx.Counters(); c.Inflight < 2 || c.Waiting < 1; c = hx.Counters() {
				runtime.Gosched()
			}
			if _, err := hx.Query(qserve.SpecConnected, quick); !errors.Is(err, qserve.ErrOverloaded) {
				t.Fatalf("past MaxConcurrent+MaxQueue: err = %v, want ErrOverloaded", err)
			}
			if c := hx.Counters(); c.Shed != 1 {
				t.Fatalf("shed = %d, want 1", c.Shed)
			}
			close(held.hold)
			for i := 0; i < 3; i++ {
				if err := <-done; err != nil {
					t.Fatalf("held query failed: %v", err)
				}
			}

			st, m := ex.Stats(), ex.Metrics()
			if st.CacheHits != 1 || st.CacheMisses != 2 {
				t.Fatalf("stats count %d hits, %d misses; want 1, 2", st.CacheHits, st.CacheMisses)
			}
			if st.CacheHits != m.CacheHits || st.CacheMisses != m.CacheMisses || st.Coalesced != m.CacheCoalesced ||
				st.CacheBytes != m.CacheBytes || st.CacheEvictions != m.CacheEvictions {
				t.Fatalf("stats cache counters %+v disagree with metrics %+v", st, m)
			}
		})
	}
}

// TestCachedMissAllocParity holds a cacheable miss to the uncached
// kernel path on the single store and the fleet (one and three
// shards): a warm miss on a fresh key may allocate at most 1 KiB more
// than the same query with the cache off — the entry it stores and the
// singleflight closure, never a copy of the kernel's per-vertex output
// (4 KiB or more per query at this scale).
func TestCachedMissAllocParity(t *testing.T) {
	n, ups := testUpdates(t, 10, 4, 67)
	ups = stream.Mirror(ups)
	cfg := qserve.Config{Undirected: true, MaxConcurrent: 1}
	cached := cfg
	cached.CacheBytes = 8 << 20
	for _, tc := range contractEngines(n, ups) {
		t.Run(tc.name, func(t *testing.T) {
			off, _ := tc.build(cfg)
			b := off.Backend()
			allocated := func(ex *qserve.Executor, sp *qserve.Spec, a qserve.Args) (uint64, qserve.CacheState) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				r, err := ex.Query(sp, a)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.TotalAlloc - before.TotalAlloc, r.Cache
			}
			for _, q := range []struct {
				sp *qserve.Spec
				k  uint64
			}{{qserve.SpecBFS, 0}, {qserve.SpecSSSP, 0}, {qserve.SpecKHop, 2}, {qserve.SpecComponents, 0}} {
				// Warm the scratch pool for this kind.
				off.Query(q.sp, qserve.Args{A: 1, B: q.k})
				// Minimum over rounds, each a miss in a fresh executor
				// whose generation another query already installed, so
				// neither side pays a one-off growth.
				minOff, minOn := ^uint64(0), ^uint64(0)
				for round := uint64(0); round < 5; round++ {
					a := qserve.Args{A: 2 + 97*round, B: q.k}
					on := qserve.NewExecutor(b, cached)
					if _, err := on.Query(qserve.SpecConnected, qserve.Args{A: 1, B: 2}); err != nil {
						t.Fatal(err)
					}
					d, _ := allocated(off, q.sp, a)
					minOff = min(minOff, d)
					d, state := allocated(on, q.sp, a)
					if state != qserve.CacheMiss {
						t.Fatalf("%s%+v: disposition %v, want a miss", q.sp.Name(), a, state)
					}
					minOn = min(minOn, d)
				}
				t.Logf("%s: cacheable miss %d B, uncached %d B", q.sp.Name(), minOn, minOff)
				if minOn > minOff+1024 {
					t.Errorf("%s: cacheable miss allocates %d B, uncached %d B: %d B over the 1 KiB entry allowance",
						q.sp.Name(), minOn, minOff, minOn-minOff-1024)
				}
			}
		})
	}
}

// TestKHopZeroIsQuick: a k-hop query with k = 0 answers 1 (the source)
// as a quick answer, without a traversal or a cache round trip, on the
// single store and the fleets; a bad source is still refused first.
func TestKHopZeroIsQuick(t *testing.T) {
	n, ups := testUpdates(t, 8, 4, 61)
	ups = stream.Mirror(ups)
	for _, tc := range contractEngines(n, ups) {
		t.Run(tc.name, func(t *testing.T) {
			ex, _ := tc.build(qserve.Config{Undirected: true, MaxConcurrent: 1, CacheBytes: 8 << 20})
			for i := 0; i < 2; i++ {
				r, err := ex.Query(qserve.SpecKHop, qserve.Args{A: 3, B: 0})
				if err != nil || r.Val.N1 != 1 || r.Cache != qserve.CacheBypass {
					t.Fatalf("k=0: %+v, %v; want reached 1, quick (bypass) disposition", r, err)
				}
			}
			if st := ex.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
				t.Fatalf("k=0 touched the cache: %d hits, %d misses", st.CacheHits, st.CacheMisses)
			}
			if _, err := ex.Query(qserve.SpecKHop, qserve.Args{A: uint64(n), B: 0}); !errors.Is(err, qserve.ErrBadVertex) {
				t.Fatalf("k=0 from a bad vertex: err = %v, want ErrBadVertex", err)
			}
		})
	}
}
