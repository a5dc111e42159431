package qserve

import (
	"sync"

	"snapdyn/internal/dynconn"
	"snapdyn/internal/edge"
	"snapdyn/internal/snapmgr"
)

// Live is the between-refresh connectivity index: a dynamic spanning
// forest (internal/dynconn) the ingest path updates synchronously, so
// st-connectivity can be answered from the update stream without
// waiting for the next snapshot publication.
//
// On an undirected engine the forest is a read-only view over the
// served store: it holds parent pointers and child lists, never edges.
// The commit applies each batch to the store as before; Apply then
// reconciles the batch's keys against the store's current state (a cut
// tree edge is replaced from the store's own adjacency), so a mirrored
// update costs the index two root walks unless it removes a tree edge
// or joins two trees.
// Directed engines keep a private store (NewLive), because their served
// store holds no in-arcs to search: every update is applied to it as an
// undirected edge, giving weak connectivity, the only kind a spanning
// forest can maintain.
//
// Consistency model: a live answer reflects every batch whose Ingest
// call returned before the query started — fresher than any snapshot —
// and at quiesce (no ingest in flight) it agrees exactly with the
// components of the next published snapshot, because the forest spans
// the very store that snapshot is cut from. Reconciling is state-based,
// so concurrent ingests may reconcile in any order relative to their
// store applies.
//
// Live answers are never cached: the index mutates continuously and is
// pinned to no snapshot.
type Live struct {
	mu  sync.RWMutex
	idx *dynconn.Index
}

// NewLive returns an empty live index over n vertices that owns a
// private store. Seed it from the current snapshot (SeedView) before
// serving.
func NewLive(n int) *Live {
	return &Live{idx: dynconn.New(n)}
}

// NewLiveOver returns an empty live index over n vertices whose forest
// is a view over g, the served store, which must hold both arcs of
// every edge. Seed it from a snapshot of g (SeedView, Seed) before
// serving, and Apply every batch after g has applied it.
func NewLiveOver(n int, g dynconn.Reader) *Live {
	return &Live{idx: dynconn.NewView(n, g)}
}

// Apply brings the forest up to date with one ingested batch. Called
// by the executor's Ingest after the commit applied it to the served
// store; safe for concurrent use.
func (l *Live) Apply(batch []edge.Update) {
	l.mu.Lock()
	l.idx.Apply(batch)
	l.mu.Unlock()
}

// Connected answers st-connectivity from the forest: two root walks.
func (l *Live) Connected(u, v uint32) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.Connected(u, v)
}

// Components counts the forest's components (isolated vertices
// included) — the oracle hook the consistency tests compare against
// the snapshot path's component count.
func (l *Live) Components() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.ComponentCount()
}

// Labels writes every vertex's tree root into dst: the forest's
// partition, for tests that compare it vertex by vertex.
func (l *Live) Labels(dst []uint32) []uint32 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.Labels(dst)
}

// CheckInvariants verifies the forest's structure and that every tree
// edge is live in the store (see dynconn.Index.CheckInvariants).
func (l *Live) CheckInvariants() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.CheckInvariants()
}

// Seed rebuilds the forest by one BFS over nb, the arcs of a snapshot
// of the store in store ids (see dynconn.Index.Seed).
func (l *Live) Seed(nb dynconn.Neighbors) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.Seed(nb)
}

// SeedView seeds the forest from a published snapshot — the bootstrap
// that makes a live index agree with history it never saw (including a
// durable store's recovered state). Reordered layouts are translated
// back to original ids vertex by vertex; a private store is loaded with
// each stored arc as one undirected edge, exactly what Apply does per
// update.
func (l *Live) SeedView(v *snapmgr.View) { l.Seed(viewNeighbors(v)) }

// viewNeighbors is a published view's adjacency in original ids.
func viewNeighbors(v *snapmgr.View) dynconn.Neighbors {
	if v.C != nil {
		return v.C.Neighbors
	}
	g := v.G
	return func(u edge.ID, fn func(w edge.ID, t uint32) bool) {
		if v.Perm != nil {
			u = v.Perm[u]
		}
		adj, ts := g.Neighbors(u)
		for i, w := range adj {
			if v.Inv != nil {
				w = v.Inv[w]
			}
			if !fn(w, ts[i]) {
				return
			}
		}
	}
}

// EnableLive builds the live connectivity index, seeded from the
// backend's current snapshot, and starts feeding it from every
// subsequent Ingest: a view over the served store (the fleet's stores
// read by owner) on an undirected engine, a private store on a directed
// one. Unpublished updates are published first, so the seed covers the
// whole store. Call before serving (not synchronized with in-flight
// Ingest calls). Live queries (Connected with live=1) fail with
// ErrUnsupported until this is called.
func (e *Executor) EnableLive() {
	store, seed := e.b.LiveSource()
	var l *Live
	if e.cfg.Undirected {
		l = NewLiveOver(e.n, store)
	} else {
		l = NewLive(e.n)
	}
	l.Seed(seed)
	e.live = l
}

// Live returns the live connectivity index, nil until EnableLive.
func (e *Executor) Live() *Live { return e.live }
