// Package shard is the in-process vertex-partitioned sharding layer: a
// Fleet of shard workers, each owning its own dirty-tracked store and
// epoch-versioned snapshot manager, fronted by a router that assigns
// every vertex to exactly one shard (the paper's Vpart rule, u mod P,
// promoted from a batch-application trick to the serving architecture).
//
// Ownership is by arc source: shard Owner(u) holds all arcs out of u,
// so a vertex's entire adjacency lives in one shard and every update
// (u, v) routes to exactly one shard's gate. Ingest batches are
// scattered by owner and applied concurrently — P shard gates instead
// of one global RWMutex — and each shard refreshes its own snapshot
// independently, so refresh cost and gate stalls scale with the shard,
// not the whole graph.
//
// The fleet serves queries through qserve's one executor (NewExecutor):
// this package supplies only its backend — per-shard snapshot pinning,
// the scatter-gather kernel table, ingest routing, and the owner-routed
// store the live index reads. Admission, validation, quick answers, the
// result cache and the live path are qserve's, shared with the single
// store.
//
// Every fleet kernel is the single-snapshot kernel's own code over the
// pinned view set. SSSP runs sssp.Bands, the one delta-stepping band
// loop, and supplies only its relaxation phase: one serial pass that
// relaxes each batch member's arcs in place from its owner shard's
// snapshot. Components run cc.ComponentsOver, whose hook phase scans the
// per-shard CSRs. PageRank is centrality.PageRank and BFS is
// traversal.RunOver, the single store's kernels, reading vertex u's arcs
// from views[u%P].
//
// Contracts (relied on by the scatter-gather kernels in query.go):
//
//   - Per-shard epochs are independently monotone. There is no global
//     epoch; cross-shard ordering of two updates routed to different
//     shards is undefined, exactly like two updates racing one gate.
//   - A scatter-gather query pins one snapshot per shard (View) for its
//     whole run. Mid-query refreshes publish new snapshots without
//     affecting the pinned set — RCU per shard, as before.
//   - While auto-refreshers run, every mutation must go through the
//     fleet's Ingest (or a shard manager's own Ingest): the per-shard
//     gate contract is the single-manager gate contract, per shard.
//
// Because the owner holds all of u's arcs, an undirected fleet's shard
// also holds all of u's in-arcs, so the BFS behind bfs, connected and
// khop (the single store's traversal engine over the pinned view set,
// traversal.RunOver) is direction-optimizing there, by the single
// store's rule: its pull levels scan each vertex's span in its owner
// shard.
package shard

import (
	"time"

	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/snapmgr"
)

// Config sizes a Fleet.
type Config struct {
	// Shards is the number of shard workers; <= 0 means 1.
	Shards int
	// Workers is the parallelism used for the initial materialization
	// of each shard's snapshot; <= 0 means GOMAXPROCS.
	Workers int
	// ExpectedEdges sizes each shard's store to ExpectedEdges/Shards
	// (plus slack); <= 0 derives 8 arcs per vertex.
	ExpectedEdges int
	// NewStore, when non-nil, builds each shard's backing store over n
	// vertices (every store spans the full vertex set; only owned
	// vertices ever receive arcs). Nil builds the hybrid default.
	NewStore func(shard, n, expectedEdges int) dyngraph.Store
}

// Fleet is a set of shard workers behind one vertex router. All methods
// are safe for concurrent use; the gate discipline within each shard is
// exactly snapmgr's.
type Fleet struct {
	n    int
	p    int
	mgrs []*snapmgr.Manager
}

// New builds a fleet of cfg.Shards shard workers over n vertices, each
// at epoch 1 with an empty snapshot.
func New(n int, cfg Config) *Fleet {
	p := cfg.Shards
	if p <= 0 {
		p = 1
	}
	expected := cfg.ExpectedEdges
	if expected <= 0 {
		expected = 8 * n
	}
	perShard := expected/p + 1
	f := &Fleet{n: n, p: p, mgrs: make([]*snapmgr.Manager, p)}
	par.Workers(min(p, par.MaxWorkers()), func(id int) {
		for s := id; s < p; s += min(p, par.MaxWorkers()) {
			var store dyngraph.Store
			if cfg.NewStore != nil {
				store = cfg.NewStore(s, n, perShard)
			} else {
				store = dyngraph.NewHybrid(n, perShard, 0, uint64(s)+1)
			}
			f.mgrs[s] = snapmgr.New(cfg.Workers, dyngraph.NewTracked(store))
		}
	})
	return f
}

// NumVertices returns the global vertex-set size.
func (f *Fleet) NumVertices() int { return f.n }

// Shards returns the shard count.
func (f *Fleet) Shards() int { return f.p }

// Owner returns the shard owning vertex u — the router. Every arc out
// of u, and every update with source u, belongs to this shard.
func (f *Fleet) Owner(u uint32) int { return int(u % uint32(f.p)) }

// Manager returns shard s's snapshot manager, for per-shard policy and
// metrics access.
func (f *Fleet) Manager(s int) *snapmgr.Manager { return f.mgrs[s] }

// NumEdges returns the number of live arcs across all shards (reading
// each shard's live store; for snapshot-consistent counts sum over a
// pinned View instead).
func (f *Fleet) NumEdges() int64 {
	var m int64
	for _, mgr := range f.mgrs {
		m += mgr.Store().NumEdges()
	}
	return m
}

// Ingest scatters the batch by owning shard and applies the sub-batches
// concurrently, each through its shard's ingest/refresh gate. workers
// is the total parallelism budget: each shard's sub-batch is applied
// with max(1, workers/Shards) workers. Safe to call concurrently with
// other Ingest calls, with queries, and with running auto-refreshers.
func (f *Fleet) Ingest(workers int, batch []edge.Update) {
	if len(batch) == 0 {
		return
	}
	if f.p == 1 {
		f.mgrs[0].Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(workers, batch) })
		return
	}
	subs := f.Scatter(batch, nil)
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	perShard := max(1, workers/f.p)
	par.Workers(f.p, func(s int) {
		if len(subs[s]) == 0 {
			return
		}
		f.mgrs[s].Ingest(func(t *dyngraph.Tracked) { t.ApplyBatch(perShard, subs[s]) })
	})
}

// IngestEpoch is Ingest returning the fleet ack epoch: the sum-epoch
// value at which every sub-batch is guaranteed visible. Each touched
// shard contributes its own ack epoch (snapmgr.IngestEpoch), untouched
// shards their current epoch; because per-shard epochs are monotone the
// sum reaching the returned value implies... only that total progress
// happened — the sum-epoch wait (WaitEpoch) is deliberately coarse.
// Precise per-shard read-your-writes needs the per-shard ack epochs,
// which single-vertex queries get for free (one owner per vertex).
func (f *Fleet) IngestEpoch(workers int, batch []edge.Update) uint64 {
	if f.p == 1 {
		return f.mgrs[0].IngestEpoch(func(s *dyngraph.Tracked) { s.ApplyBatch(workers, batch) })
	}
	subs := f.Scatter(batch, nil)
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	perShard := max(1, workers/f.p)
	epochs := make([]uint64, f.p)
	par.Workers(f.p, func(s int) {
		if len(subs[s]) == 0 {
			epochs[s] = f.mgrs[s].Epoch()
			return
		}
		epochs[s] = f.mgrs[s].IngestEpoch(func(t *dyngraph.Tracked) { t.ApplyBatch(perShard, subs[s]) })
	})
	var sum uint64
	for _, e := range epochs {
		sum += e
	}
	return sum
}

// WaitEpoch blocks until the fleet sum-epoch reaches min, polling the
// shards with a short backoff (the per-shard publication channels can't
// be multiplexed without a global epoch, which the design deliberately
// avoids). timeout <= 0 waits forever. Returns the sum observed and
// snapmgr.ErrEpochWaitTimeout on expiry.
//
// No fleet ack is above the sum epoch plus one per shard, so a larger
// min is refused at once with ErrEpochWaitTimeout. A reachable one
// demands the next epoch of every shard with pending updates
// (snapmgr.Manager.Demand), so running auto-refreshers publish it now
// rather than at their next trigger check.
func (f *Fleet) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	e := f.Epoch()
	if e >= min {
		return e, nil
	}
	if min > e+uint64(f.p) {
		return e, snapmgr.ErrEpochWaitTimeout
	}
	for _, mgr := range f.mgrs {
		if mgr.Staleness() > 0 {
			mgr.Demand(mgr.Epoch() + 1)
		}
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	sleep := 100 * time.Microsecond
	for {
		e := f.Epoch()
		if e >= min {
			return e, nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return e, snapmgr.ErrEpochWaitTimeout
		}
		time.Sleep(sleep)
		if sleep < 5*time.Millisecond {
			sleep *= 2
		}
	}
}

// Scatter partitions a batch by owning shard into dst (reused when its
// shape fits, so steady-state ingest loops can avoid the per-call
// slices). The sub-batches are newly ordered but order within a shard
// preserves batch order.
func (f *Fleet) Scatter(batch []edge.Update, dst [][]edge.Update) [][]edge.Update {
	if len(dst) != f.p {
		dst = make([][]edge.Update, f.p)
	}
	for s := range dst {
		dst[s] = dst[s][:0]
	}
	for i := range batch {
		s := f.Owner(batch[i].U)
		dst[s] = append(dst[s], batch[i])
	}
	return dst
}

// Refresh materializes and publishes a fresh snapshot on every shard,
// in parallel across shards. Each shard's epoch advances by exactly
// one, independently.
func (f *Fleet) Refresh(workers int) {
	perShard := max(1, workers/f.p)
	par.Workers(f.p, func(s int) { f.mgrs[s].Refresh(perShard) })
}

// Start launches every shard's background auto-refresher under p,
// reporting false if any shard already had one running (shards that did
// start stay started).
func (f *Fleet) Start(p snapmgr.Policy) bool {
	ok := true
	for _, mgr := range f.mgrs {
		ok = mgr.Start(p) && ok
	}
	return ok
}

// Stop halts every shard's auto-refresher, waiting for in-flight
// refreshes to publish.
func (f *Fleet) Stop() {
	for _, mgr := range f.mgrs {
		mgr.Stop()
	}
}

// View pins the current snapshot of every shard into dst (reused when
// it has the right length): the per-query snapshot set the contract
// requires. The pinned snapshots stay valid for as long as the caller
// holds them, regardless of concurrent refreshes.
func (f *Fleet) View(dst []*csr.Graph) []*csr.Graph {
	if len(dst) != f.p {
		dst = make([]*csr.Graph, f.p)
	}
	for s, mgr := range f.mgrs {
		dst[s] = mgr.Current()
	}
	return dst
}

// Epoch returns the sum of the per-shard epochs: a monotone global
// progress counter (each shard's epoch is independently monotone, so
// the sum is too). There is no cross-shard snapshot ordering beyond
// monotonicity.
func (f *Fleet) Epoch() uint64 {
	var e uint64
	for _, mgr := range f.mgrs {
		e += mgr.Epoch()
	}
	return e
}

// Staleness returns the total dirty-vertex count across shards — the
// work the next fleet-wide refresh round will do.
func (f *Fleet) Staleness() int {
	d := 0
	for _, mgr := range f.mgrs {
		d += mgr.Staleness()
	}
	return d
}

// Metrics aggregates the per-shard refresh metrics into one view:
// counts and total latency sum across shards, Last*/Max latencies take
// the per-shard maximum, Epoch is the epoch sum, Staleness the total
// dirty count, and Age the oldest shard snapshot's age.
func (f *Fleet) Metrics() snapmgr.Metrics {
	var out snapmgr.Metrics
	for _, mgr := range f.mgrs {
		m := mgr.Metrics()
		out.Refreshes += m.Refreshes
		out.AutoRefreshes += m.AutoRefreshes
		out.DirtyTriggered += m.DirtyTriggered
		out.AgeTriggered += m.AgeTriggered
		out.DemandTriggered += m.DemandTriggered
		out.LastDirty += m.LastDirty
		out.LastPatched += m.LastPatched
		out.LastEnumeratedArcs += m.LastEnumeratedArcs
		out.TotalLatency += m.TotalLatency
		out.Epoch += m.Epoch
		out.Staleness += m.Staleness
		if m.LastLatency > out.LastLatency {
			out.LastLatency = m.LastLatency
		}
		if m.MaxLatency > out.MaxLatency {
			out.MaxLatency = m.MaxLatency
		}
		if m.Age > out.Age {
			out.Age = m.Age
		}
	}
	return out
}
