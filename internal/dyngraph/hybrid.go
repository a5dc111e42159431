package dyngraph

import (
	"sync/atomic"

	"snapdyn/internal/arena"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// DefaultDegreeThresh is the paper's recommended degree-thresh for
// synthetic R-MAT small-world graphs: adjacency lists up to this size use
// arrays, larger ones migrate to treaps.
const DefaultDegreeThresh = 32

// Hybrid is the paper's Hybrid-arr-treap representation: dynamic arrays
// for the (majority) low-degree vertices, treaps for high-degree ones.
// Inserts are array-fast for most vertices; deletes on the heavy vertices
// — where Dyn-arr pays O(d) scans — take logarithmic time. A vertex's
// adjacency migrates from array to treap when its live degree rises
// past degree-thresh and back when it falls to it again, so the
// representation is a function of the live degree alone: a store
// rebuilt from a dump of another's arcs (a recovered checkpoint) is in
// the same modes, and answers the next update the same way, as the
// store that got there by inserts and deletes.
//
// Synchronization: every operation on vertex u runs under u's treap-pool
// shard mutex, which also makes array-to-treap migration atomic. With
// hundreds of shards, cross-vertex contention is negligible; per-vertex
// contention (the phenomenon the paper studies) behaves as with
// per-vertex locks.
type Hybrid struct {
	name   string
	thresh uint32
	isTr   []bool // true = treap mode; guarded by the owning shard mutex
	arr    arrCore
	pool   *treapPool
	roots  []uint32
	deg    []uint32 // live degree for treap-mode vertices
	live   atomic.Int64
}

var _ Store = (*Hybrid)(nil)

// NewHybrid creates a hybrid store over n vertices with the given degree
// threshold (0 uses DefaultDegreeThresh), expecting about expectedEdges
// insertions.
func NewHybrid(n, expectedEdges, thresh int, seed uint64) *Hybrid {
	if thresh <= 0 {
		thresh = DefaultDegreeThresh
	}
	roots := make([]uint32, n)
	for i := range roots {
		roots[i] = nilNode
	}
	return &Hybrid{
		name:   "hybrid-arr-treap",
		thresh: uint32(thresh),
		isTr:   make([]bool, n),
		arr:    newArrCore(n, arena.ClassSize(max(2, 2*expectedEdges/max(1, n))), expectedEdges),
		pool:   newTreapPool(defaultTreapShards, seed),
		roots:  roots,
		deg:    make([]uint32, n),
	}
}

// DegreeThresh returns the migration threshold.
func (s *Hybrid) DegreeThresh() int { return int(s.thresh) }

// Name implements Store.
func (s *Hybrid) Name() string { return s.name }

// NumVertices implements Store.
func (s *Hybrid) NumVertices() int { return len(s.isTr) }

// NumEdges implements Store.
func (s *Hybrid) NumEdges() int64 { return s.live.Load() }

// IsTreap reports whether u currently uses the treap representation.
func (s *Hybrid) IsTreap(u edge.ID) bool {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	t := s.isTr[u]
	sh.mu.Unlock()
	return t
}

// Insert implements Store.
func (s *Hybrid) Insert(u, v edge.ID, t uint32) {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	if s.isTr[u] {
		s.roots[u] = sh.insert(s.roots[u], v, t)
		s.deg[u]++
	} else {
		s.arr.insert(u, v, t)
		if s.arr.alive[u] > s.thresh {
			s.migrate(sh, u)
		}
	}
	sh.mu.Unlock()
	s.live.Add(1)
}

// migrate converts u's adjacency from array to treap form; called with
// u's shard mutex held.
func (s *Hybrid) migrate(sh *treapShard, u edge.ID) {
	root := s.roots[u]
	cnt := uint32(0)
	s.arr.iterate(u, func(v edge.ID, t uint32) bool {
		root = sh.insert(root, v, t)
		cnt++
		return true
	})
	s.roots[u] = root
	s.deg[u] = cnt
	s.arr.reset(u)
	s.isTr[u] = true
}

// demote converts u's adjacency from treap back to array form, in key
// order, each neighbor repeated by its multiplicity under its one
// label; called with u's shard mutex held.
func (s *Hybrid) demote(sh *treapShard, u edge.ID) {
	sh.walk(s.roots[u], func(key, ts, cnt uint32) bool {
		for ; cnt > 0; cnt-- {
			s.arr.insert(u, key, ts)
		}
		return true
	})
	sh.freeAll(s.roots[u])
	s.roots[u] = nilNode
	s.deg[u] = 0
	s.isTr[u] = false
}

// deleteTreap removes one tuple u->v from u's treap, demoting u when
// its degree falls back to the threshold; called with u's shard mutex
// held.
func (s *Hybrid) deleteTreap(sh *treapShard, u, v edge.ID) bool {
	root, ok := sh.deleteKey(s.roots[u], v)
	s.roots[u] = root
	if ok {
		if s.deg[u]--; s.deg[u] <= s.thresh {
			s.demote(sh, u)
		}
	}
	return ok
}

// Delete implements Store.
func (s *Hybrid) Delete(u, v edge.ID) bool {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	var ok bool
	if s.isTr[u] {
		ok = s.deleteTreap(sh, u, v)
	} else {
		ok = s.arr.delete(u, v)
	}
	sh.mu.Unlock()
	if ok {
		s.live.Add(-1)
	}
	return ok
}

// DeleteTuple implements Store: an exact-tuple scan in array mode, a
// logarithmic keyed removal in treap mode.
func (s *Hybrid) DeleteTuple(u, v edge.ID, t uint32) bool {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	var ok bool
	if s.isTr[u] {
		ok = s.deleteTreap(sh, u, v)
	} else {
		ok = s.arr.deleteTuple(u, v, t)
	}
	sh.mu.Unlock()
	if ok {
		s.live.Add(-1)
	}
	return ok
}

// Degree implements Store.
func (s *Hybrid) Degree(u edge.ID) int {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	var d int
	if s.isTr[u] {
		d = int(s.deg[u])
	} else {
		d = int(s.arr.alive[u])
	}
	sh.mu.Unlock()
	return d
}

// Has implements Store.
func (s *Hybrid) Has(u, v edge.ID) bool {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.isTr[u] {
		return sh.find(s.roots[u], v) != nilNode
	}
	found := false
	s.arr.iterate(u, func(w edge.ID, _ uint32) bool {
		if w == v {
			found = true
			return false
		}
		return true
	})
	return found
}

// Neighbors implements Store.
func (s *Hybrid) Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool) {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.isTr[u] {
		sh.walk(s.roots[u], func(key, ts, cnt uint32) bool {
			for i := uint32(0); i < cnt; i++ {
				if !fn(key, ts) {
					return false
				}
			}
			return true
		})
		return
	}
	s.arr.iterate(u, fn)
}

// ReadKeys implements KeyedReader: a treap-mode vertex is in keyed
// order, an array-mode one (per-tuple labels, insertion order) is not.
func (s *Hybrid) ReadKeys(u edge.ID, keys []edge.ID, cnt, ts []uint32) (int, bool) {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.isTr[u] {
		return int(s.arr.alive[u]), false
	}
	sh.readKeys(s.roots[u], keys, cnt, ts)
	return int(s.deg[u]), true
}

// ApplyBatch implements Store. Like the treap store, batches past one
// applyConcurrent stripe are semi-sorted by source vertex so each
// vertex's updates apply in one locked pass, in batch order: the store's
// state after a batch is then the same whatever the worker count, which
// replicas fed the same batches (a recovered store, a reference oracle)
// rely on.
func (s *Hybrid) ApplyBatch(workers int, batch []edge.Update) {
	if len(batch) <= applyChunk {
		applyConcurrent(s, workers, batch)
		return
	}
	keys := make([]uint32, len(batch))
	for i := range batch {
		keys[i] = batch[i].U
	}
	perm := psort.Order(workers, keys)
	bounds := groupBounds(keys, perm)
	par.ForDynamic(workers, len(bounds)-1, 8, func(glo, ghi int) {
		for g := glo; g < ghi; g++ {
			lo, hi := bounds[g], bounds[g+1]
			u := batch[perm[lo]].U
			sh := s.pool.shard(u)
			sh.mu.Lock()
			var delta int64
			for i := lo; i < hi; i++ {
				up := &batch[perm[i]]
				if up.Op == edge.Insert {
					if s.isTr[u] {
						s.roots[u] = sh.insert(s.roots[u], up.V, up.T)
						s.deg[u]++
					} else {
						s.arr.insert(u, up.V, up.T)
						if s.arr.alive[u] > s.thresh {
							s.migrate(sh, u)
						}
					}
					delta++
					continue
				}
				var ok bool
				if s.isTr[u] {
					ok = s.deleteTreap(sh, u, up.V)
				} else {
					ok = s.arr.deleteTuple(u, up.V, up.T)
				}
				if ok {
					delta--
				}
			}
			sh.mu.Unlock()
			s.live.Add(delta)
		}
	})
}

// TreapVertexCount returns how many vertices have migrated to treap mode,
// for stats and tests.
func (s *Hybrid) TreapVertexCount() int {
	c := 0
	for u := range s.isTr {
		sh := s.pool.shard(edge.ID(u))
		sh.mu.Lock()
		if s.isTr[u] {
			c++
		}
		sh.mu.Unlock()
	}
	return c
}
