// Package dyngraph implements the paper's dynamic graph representations:
// resizable adjacency arrays (Dyn-arr and its no-resize upper bound),
// adjacency treaps, the hybrid structure keyed by a degree threshold
// (arrays below it; above it, in place of the paper's treaps, sorted
// blocks of packed 8-byte tuples in the treap's keyed order), vertex
// partitioning (Vpart), edge partitioning (Epart), and batched
// (semi-sorted) update application. TreapStore stays as the paper's
// treap representation for its figures.
//
// All representations share multigraph semantics matching the paper's C
// implementation: Insert appends a tuple unconditionally (constant-time
// for arrays; duplicate tuples raise a per-neighbor multiplicity in
// treaps), and Delete removes one matching tuple, reporting whether one
// existed. Degree counts live tuples. Iteration order is
// representation-specific.
//
// Concurrency: all mutating and reading methods are safe for concurrent
// use; mutations to the same vertex serialize on a per-vertex spinlock.
// Neighbor callbacks run with that vertex's lock held and must not
// re-enter the store for the same vertex.
package dyngraph

import (
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
)

// Store is a dynamic adjacency structure over a fixed vertex set
// [0, NumVertices).
type Store interface {
	// Name identifies the representation ("dyn-arr", "treaps", ...).
	Name() string
	// NumVertices returns the size of the vertex set.
	NumVertices() int
	// NumEdges returns the current number of live edge tuples.
	NumEdges() int64
	// Insert appends the tuple u->v with time label t.
	Insert(u, v edge.ID, t uint32)
	// Delete removes one tuple u->v (any time label), returning whether
	// one existed.
	Delete(u, v edge.ID) bool
	// DeleteTuple removes the specific tuple u->v with time label t (the
	// paper's "locate the required tuple"): array representations must
	// scan for the exact entry, while treaps locate the neighbor key in
	// O(log d) regardless. t == edge.NoTime acts as a wildcard. When the
	// labeled tuple is absent, one u->v tuple with any label is removed
	// as a fallback. Reports whether a tuple was removed.
	DeleteTuple(u, v edge.ID, t uint32) bool
	// Degree returns the number of live tuples out of u.
	Degree(u edge.ID) int
	// Has reports whether at least one live tuple u->v exists.
	Has(u, v edge.ID) bool
	// Neighbors calls fn for every live tuple out of u (once per
	// multiplicity) until fn returns false.
	Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool)
	// ApplyBatch applies a batch of updates using the given number of
	// workers (<=0 means GOMAXPROCS).
	ApplyBatch(workers int, batch []edge.Update)
}

// KeyedReader is the optional surface of stores that can enumerate a
// vertex in keyed order: ascending neighbor id, each neighbor repeated
// by its multiplicity, one time label per neighbor — so the adjacency
// is a pure function of per-neighbor (multiplicity, label) state. Treap
// adjacencies and Hybrid's heavy vertices are; the arc-granular snapshot
// refresh (csr.RefreshDelta) rebuilds such a vertex from its previous
// span and the read-back state of only the neighbors that were touched,
// instead of walking all it holds.
type KeyedReader interface {
	// ReadKeys returns u's live degree and whether u is currently
	// enumerated in keyed order. If it is, cnt[i] and ts[i] receive the
	// multiplicity (0 = absent) and label of neighbor keys[i]; keys
	// must ascend. Everything is read under one acquisition of u's
	// lock. An empty key list makes it a combined Degree and
	// keyed-order query.
	ReadKeys(u edge.ID, keys []edge.ID, cnt, ts []uint32) (deg int, keyed bool)
}

var (
	_ KeyedReader = (*Hybrid)(nil)
	_ KeyedReader = (*TreapStore)(nil)
	_ KeyedReader = (*Tracked)(nil)
)

// applyChunk is applyConcurrent's stripe: a batch no longer than this
// is one stripe, applied by one worker in batch order.
const applyChunk = 1024

// applyConcurrent is the default ApplyBatch: updates are striped across
// workers in chunks; per-vertex locks serialize conflicting updates. Used
// by representations without a specialized batch path. Across stripes
// there is no per-vertex order, and a store's final state can depend on
// it (array order; whether a delete lands before or after the insert
// that moves its vertex to keyed form, which decides the label a
// duplicated neighbor keeps) — the stores with a semi-sorted batch path
// therefore use this one only for single-stripe batches.
func applyConcurrent(s Store, workers int, batch []edge.Update) {
	par.ForDynamic(workers, len(batch), applyChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := batch[i]
			if u.Op == edge.Insert {
				s.Insert(u.U, u.V, u.T)
			} else {
				s.DeleteTuple(u.U, u.V, u.T)
			}
		}
	})
}

// InsertAll bulk-loads an edge list as a series of insertions ("graph
// construction treated as a series of insertions").
func InsertAll(s Store, workers int, edges []edge.Edge) {
	par.ForDynamic(workers, len(edges), 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			s.Insert(e.U, e.V, e.T)
		}
	})
}

// CollectNeighbors returns u's live neighbor tuples as a slice, mainly
// for tests and examples.
func CollectNeighbors(s Store, u edge.ID) []edge.Edge {
	var out []edge.Edge
	s.Neighbors(u, func(v edge.ID, t uint32) bool {
		out = append(out, edge.Edge{U: u, V: v, T: t})
		return true
	})
	return out
}
