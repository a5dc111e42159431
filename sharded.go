package snapdyn

import (
	"sync"

	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/shard"
	"snapdyn/internal/sssp"
	"snapdyn/internal/stream"
)

// ShardedGraph is the vertex-partitioned counterpart of a Graph behind
// a SnapshotManager: P shard workers, each owning its own dirty-tracked
// store and epoch-versioned snapshot manager, fronted by a router that
// assigns vertex u to shard u mod P (the paper's Vpart rule). Ingest
// batches scatter to the owning shards' gates and apply concurrently;
// queries pin one snapshot per shard and run scatter-gather kernels
// across the pinned set.
//
// The API mirrors SnapshotManager: gated ingest (ApplyUpdates,
// InsertEdge, DeleteEdge), Refresh/Current returning an immutable view,
// and the same auto-refresh policy type. Two contracts differ from the
// single-store manager and are worth naming:
//
//   - Per-shard epochs are independently monotone; Epoch reports their
//     sum. There is no global epoch, so two updates routed to different
//     shards have no defined cross-shard order — exactly like two
//     updates racing a single gate.
//   - A query (anything on a ShardedView) pins one snapshot per shard
//     for its whole run; mid-query refreshes publish without affecting
//     the pinned set.
//
// All methods are safe for concurrent use.
type ShardedGraph struct {
	f          *shard.Fleet
	undirected bool
}

// NewSharded creates a vertex-partitioned dynamic graph over n vertices
// with the given shard count. Options are interpreted per shard: each
// shard's store uses the selected representation over the full vertex
// set (only owned vertices receive arcs), sized to expected-edges /
// shards, with the seed offset per shard for distinct treap priorities.
func NewSharded(n, shards int, opts ...Option) *ShardedGraph {
	o := Options{expectedEdges: 8 * n, seed: 1}
	for _, f := range opts {
		f(&o)
	}
	f := shard.New(n, shard.Config{
		Shards:        shards,
		ExpectedEdges: o.expectedEdges,
		NewStore: func(s, n, perShard int) dyngraph.Store {
			return o.store(n, perShard, o.seed+uint64(s))
		},
	})
	return &ShardedGraph{f: f, undirected: o.undirected}
}

// NumVertices returns the global vertex-set size.
func (g *ShardedGraph) NumVertices() int { return g.f.NumVertices() }

// NumEdges returns the number of live arcs across all shards (an
// undirected edge counts as two arcs).
func (g *ShardedGraph) NumEdges() int64 { return g.f.NumEdges() }

// Shards returns the shard count P.
func (g *ShardedGraph) Shards() int { return g.f.Shards() }

// Undirected reports whether the graph maintains both arcs per edge.
func (g *ShardedGraph) Undirected() bool { return g.undirected }

// ShardOf returns the shard owning u's adjacency (u mod P).
func (g *ShardedGraph) ShardOf(u VertexID) int { return g.f.Owner(u) }

// ApplyUpdates scatters a batch by vertex owner and applies the
// sub-batches through the shards' gates concurrently — safe alongside
// other gated ingest and the background auto-refreshers. Mirrors the
// batch first for undirected graphs, like SnapshotManager.ApplyUpdates.
func (g *ShardedGraph) ApplyUpdates(workers int, batch []Update) {
	if g.undirected {
		batch = stream.Mirror(batch)
	}
	g.f.Ingest(workers, batch)
}

// InsertEdge adds the edge u->v at time t through the owning shard's
// gate (and v->u through its owner's gate for undirected graphs).
func (g *ShardedGraph) InsertEdge(u, v VertexID, t uint32) {
	g.f.Manager(g.f.Owner(u)).Ingest(func(s *dyngraph.Tracked) { s.Insert(u, v, t) })
	if g.undirected && u != v {
		g.f.Manager(g.f.Owner(v)).Ingest(func(s *dyngraph.Tracked) { s.Insert(v, u, t) })
	}
}

// DeleteEdge removes one edge u->v (and its mirror for undirected
// graphs) through the owning shards' gates, reporting whether the
// forward arc existed.
func (g *ShardedGraph) DeleteEdge(u, v VertexID) bool {
	var ok bool
	g.f.Manager(g.f.Owner(u)).Ingest(func(s *dyngraph.Tracked) { ok = s.Delete(u, v) })
	if g.undirected && u != v {
		g.f.Manager(g.f.Owner(v)).Ingest(func(s *dyngraph.Tracked) { s.Delete(v, u) })
	}
	return ok
}

// Refresh materializes and publishes every shard's snapshot (all shards
// in parallel, each incremental over its own dirty set) and returns the
// new current view.
func (g *ShardedGraph) Refresh(workers int) *ShardedView {
	g.f.Refresh(workers)
	return g.Current()
}

// Current pins the latest published snapshot of every shard and returns
// them as one immutable scatter-gather view: P atomic loads, never
// blocking. The view stays valid while newer snapshots are published.
func (g *ShardedGraph) Current() *ShardedView {
	return &ShardedView{views: g.f.View(nil)}
}

// Epoch returns the sum of the per-shard epochs: monotone, and advanced
// by P per full Refresh (by 1 per single-shard auto-refresh).
func (g *ShardedGraph) Epoch() uint64 { return g.f.Epoch() }

// Staleness returns the total number of vertices dirtied across shards
// since their last refreshes began — the work the next Refresh will do.
func (g *ShardedGraph) Staleness() int { return g.f.Staleness() }

// StartAutoRefresh launches one background refresher per shard under
// the given policy, reporting false if any was already running. While
// they run, mutations must go through the gated ingest methods.
func (g *ShardedGraph) StartAutoRefresh(p AutoRefreshPolicy) bool { return g.f.Start(p) }

// StopAutoRefresh halts every shard's background refresher, waiting for
// in-flight refreshes to publish.
func (g *ShardedGraph) StopAutoRefresh() { g.f.Stop() }

// Metrics returns refresh metrics aggregated across shards: counts and
// latency totals sum, worst-case latencies and age take the max.
func (g *ShardedGraph) Metrics() RefreshMetrics { return g.f.Metrics() }

// ShardedStats summarizes a sharded view's shape.
type ShardedStats = shard.Stats

// ShardedView is an immutable scatter-gather view: one pinned snapshot
// per shard, together covering every arc exactly once. Query methods
// are safe for concurrent use (each call checks out pooled scratch) and
// return freshly allocated results.
type ShardedView struct {
	views []*csr.Graph
	pool  sync.Pool // *shard.Scratch
}

func (v *ShardedView) scratch() *shard.Scratch {
	if sc, ok := v.pool.Get().(*shard.Scratch); ok {
		return sc
	}
	return shard.NewScratch()
}

// NumVertices returns the vertex-set size.
func (v *ShardedView) NumVertices() int { return v.views[0].N }

// NumEdges returns the number of arcs across the pinned snapshots.
func (v *ShardedView) NumEdges() int64 {
	var m int64
	for _, g := range v.views {
		m += g.NumEdges()
	}
	return m
}

// Shards returns the number of pinned per-shard snapshots.
func (v *ShardedView) Shards() int { return len(v.views) }

// BFS runs the single store's breadth-first search from src over the
// pinned snapshots, one worker per shard, returning the hop distance
// per vertex (NotVisited when unreached), the reached count, and the
// number of levels.
func (v *ShardedView) BFS(src VertexID) (level []int32, reached, levels int) {
	sc := v.scratch()
	l, r, d := sc.BFS(v.views, src)
	level = append([]int32(nil), l...)
	v.pool.Put(sc)
	return level, r, d
}

// STConnected answers an st-connectivity query by early-exiting
// traversal over the pinned snapshots, returning reachability and hop
// distance (-1 if unreachable).
func (v *ShardedView) STConnected(u, w VertexID) (bool, int32) {
	if u == w {
		return true, 0
	}
	sc := v.scratch()
	hops, ok := sc.STConnected(v.views, u, w)
	v.pool.Put(sc)
	if !ok {
		return false, -1
	}
	return true, hops
}

// ShortestPaths runs sharded delta-stepping from src with arc time
// labels as weights, returning the distance per vertex (InfDistance
// when unreachable). delta <= 0 derives the global heuristic bucket
// width from the pinned snapshots.
func (v *ShardedView) ShortestPaths(src VertexID, delta int64) []int64 {
	sc := v.scratch()
	d := sc.SSSP(v.views, src, sssp.LabelWeights, delta)
	dist := append([]int64(nil), d...)
	v.pool.Put(sc)
	return dist
}

// Components labels weakly-connected components by hooking over every
// shard's snapshot: comp[u] == comp[v] iff u and v are connected.
// Labels are bit-identical to Snapshot.Components over the union graph.
func (v *ShardedView) Components() []uint32 {
	sc := v.scratch()
	c := sc.Components(v.views)
	comp := append([]uint32(nil), c...)
	v.pool.Put(sc)
	return comp
}

// ComponentCount returns the number of weakly-connected components.
func (v *ShardedView) ComponentCount() int {
	sc := v.scratch()
	n := cc.Count(sc.Components(v.views))
	v.pool.Put(sc)
	return n
}

// Stats fans out over the shards and reduces vertex, arc, and degree
// summaries.
func (v *ShardedView) Stats() ShardedStats {
	sc := v.scratch()
	st := sc.Stats(v.views)
	v.pool.Put(sc)
	return st
}
