package snapdyn

import (
	"sync/atomic"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// SnapshotManager versions immutable snapshots of one live graph so
// analysis can run concurrently with ingest. It is RCU-shaped:
//
//   - Readers call Current — one atomic pointer load, never blocking —
//     and query the returned Snapshot for as long as they like. A
//     snapshot already handed out stays valid while newer ones are
//     published; it is reclaimed by the garbage collector when the last
//     reader drops it. Readers never coordinate with writers.
//   - The ingest side applies updates and calls Refresh whenever a
//     fresher snapshot should be published — or starts the background
//     auto-refresher (StartAutoRefresh) and lets policy decide. Refresh
//     consumes the graph's dirty-vertex set and touched-key log and
//     rebuilds only the adjacencies that changed since the previous
//     snapshot — a treap-backed hub from its touched keys alone —
//     reusing all clean spans (csr.RefreshDelta); it falls back to a
//     full rebuild only when nearly every arc would have to be
//     re-enumerated anyway.
//
// Refresh calls serialize on an internal gate and must not run
// concurrently with graph mutations. Without the auto-refresher the
// usual pattern (apply a batch, then refresh) satisfies that by
// construction. With the auto-refresher running, route mutations
// through the manager's ingest methods (ApplyUpdates, InsertEdge,
// DeleteEdge) — they take the shared side of the same gate, so any
// number of ingesters proceed together while refreshes wait their
// turn. Readers keep querying throughout either way.
type SnapshotManager struct {
	g *Graph
	m *snapmgr.Manager

	// cur caches the facade wrapper for the internal manager's current
	// CSR graph. It is best-effort: Current always validates the cached
	// wrapper against m.Current() and re-wraps on mismatch, so a racing
	// stale store only costs one small allocation, never staleness.
	cur atomic.Pointer[Snapshot]
}

// SnapshotLayout selects the storage format the manager publishes its
// snapshots in; see the Snapshot* constants. Queries on any layout
// accept and report original vertex ids and return identical results —
// the layout only changes the snapshot's memory footprint and traversal
// locality.
type SnapshotLayout = snapmgr.Layout

const (
	// SnapshotPlain stores unpermuted CSR arrays (the default).
	SnapshotPlain = snapmgr.LayoutPlain
	// SnapshotDegree relabels hubs-first for locality.
	SnapshotDegree = snapmgr.LayoutDegree
	// SnapshotCompressed stores gap-coded adjacency bytes, which the
	// kernels decode a run of arcs at a time — the smallest footprint
	// per edge.
	SnapshotCompressed = snapmgr.LayoutCompressed
)

// Manager builds the initial snapshot with the given worker count and
// returns the graph's snapshot manager at epoch 1, publishing plain CSR
// snapshots. Creating several managers for one graph is not useful:
// each Refresh consumes the graph's single dirty set.
func (g *Graph) Manager(workers int) *SnapshotManager {
	return g.ManagerWithLayout(workers, SnapshotPlain)
}

// ManagerWithLayout is Manager publishing snapshots in the given
// storage layout. SnapshotDegree keeps its permutation fresh across
// incremental refreshes — deltas splice through the held ordering
// until cumulative churn passes ~30% of the vertex set, then the
// ordering is recomputed; SnapshotCompressed delta-splices the
// gap-coded payload byte-wise.
// Queries through Current are layout-blind: same inputs, same results,
// original ids everywhere.
func (g *Graph) ManagerWithLayout(workers int, layout SnapshotLayout) *SnapshotManager {
	sm := &SnapshotManager{g: g, m: snapmgr.NewLayout(workers, g.store, layout)}
	sm.cur.Store(snapshotFromView(sm.m.View(), g.undirected))
	return sm
}

// Layout returns the storage format this manager publishes.
func (sm *SnapshotManager) Layout() SnapshotLayout { return sm.m.Layout() }

// Current returns the latest published snapshot: an atomic load (plus,
// right after an epoch change, one small wrapper allocation), safe from
// any goroutine at any time, including during a concurrent Refresh.
func (sm *SnapshotManager) Current() *Snapshot {
	v := sm.m.View()
	if s := sm.cur.Load(); s != nil && s.view == v {
		return s
	}
	ns := snapshotFromView(v, sm.g.undirected)
	sm.cur.Store(ns)
	return ns
}

// Epoch returns the number of materializations published so far. It is
// monotone, advances by exactly one per Refresh (even when nothing
// changed), and never runs ahead of the snapshot Current returns.
func (sm *SnapshotManager) Epoch() uint64 { return sm.m.Epoch() }

// Staleness returns the number of vertices dirtied since the last
// Refresh began consuming updates — the work the next Refresh will do.
// With no Refresh in flight, zero means Current is exact; while one is
// materializing, a zero refers to the snapshot about to be published
// (the in-flight Refresh has already claimed the dirty set).
func (sm *SnapshotManager) Staleness() int { return sm.m.Staleness() }

// Refresh materializes a snapshot covering every update applied so far
// and publishes it, returning the new current snapshot. Incremental:
// cost is proportional to the dirty-vertex set, not the graph (see the
// type comment for the fallback threshold). When no updates arrived
// since the last Refresh the previous snapshot is republished
// unchanged. Must not run concurrently with ungated mutations of the
// graph (the manager's own ingest methods are gated and always safe);
// concurrent readers are unaffected.
func (sm *SnapshotManager) Refresh(workers int) *Snapshot {
	sm.m.Refresh(workers)
	return sm.Current()
}

// ApplyUpdates applies a batch of updates through the refresh gate:
// safe to call concurrently with other gated ingest and with the
// background auto-refresher. Mirrors the batch first for undirected
// graphs, like Graph.ApplyUpdates.
func (sm *SnapshotManager) ApplyUpdates(workers int, batch []Update) {
	if sm.g.undirected {
		batch = stream.Mirror(batch)
	}
	sm.m.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(workers, batch) })
}

// InsertEdge adds the edge u->v at time t through the refresh gate
// (and v->u for undirected graphs).
func (sm *SnapshotManager) InsertEdge(u, v VertexID, t uint32) {
	sm.m.Ingest(func(s *dyngraph.Tracked) {
		s.Insert(u, v, t)
		if sm.g.undirected && u != v {
			s.Insert(v, u, t)
		}
	})
}

// DeleteEdge removes one edge u->v (and its mirror for undirected
// graphs) through the refresh gate, reporting whether the forward arc
// existed.
func (sm *SnapshotManager) DeleteEdge(u, v VertexID) bool {
	var ok bool
	sm.m.Ingest(func(s *dyngraph.Tracked) {
		ok = s.Delete(u, v)
		if sm.g.undirected && u != v {
			s.Delete(v, u)
		}
	})
	return ok
}

// AutoRefreshPolicy configures the background auto-refresher: refresh
// when the dirty-vertex count reaches MaxDirty or when MaxAge has
// passed since the last publication with updates pending. The zero
// value refreshes whenever anything is dirty.
type AutoRefreshPolicy = snapmgr.Policy

// RefreshMetrics reports refresh counts, latencies, and the current
// epoch lag (pending dirty vertices and snapshot age).
type RefreshMetrics = snapmgr.Metrics

// StartAutoRefresh launches a background goroutine that refreshes
// under the given policy, reporting false if one is already running.
// While it runs, mutations must go through the manager's ingest
// methods (ApplyUpdates, InsertEdge, DeleteEdge), which serialize with
// the background refresh; mutating the Graph directly would race the
// materialization. Readers are unaffected and never block.
func (sm *SnapshotManager) StartAutoRefresh(p AutoRefreshPolicy) bool { return sm.m.Start(p) }

// StopAutoRefresh halts the background refresher, waiting for any
// in-flight refresh to publish. Pending updates stay pending until the
// next Refresh or StartAutoRefresh.
func (sm *SnapshotManager) StopAutoRefresh() { sm.m.Stop() }

// Metrics returns a snapshot of refresh activity and current lag.
func (sm *SnapshotManager) Metrics() RefreshMetrics { return sm.m.Metrics() }
