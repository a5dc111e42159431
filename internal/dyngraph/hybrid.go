package dyngraph

import (
	"slices"
	"sync/atomic"
	"unsafe"

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
// insertions. expectedEdges sizes a vertex's first array block by the
// paper's k·m/n rule, capped at the threshold, past which the vertex
// leaves array mode. Nothing is reserved up front: the arena and the
// treap node slices grow with what is loaded, and ApplyBatch sizes a
// vertex's block, and a bulk load's node slices, from the batch itself.
func NewHybrid(n, expectedEdges, thresh int, seed uint64) *Hybrid {
	if thresh <= 0 {
		thresh = DefaultDegreeThresh
	}
	roots := make([]uint32, n)
	for i := range roots {
		roots[i] = nilNode
	}
	first := min(thresh, max(2, 2*expectedEdges/max(1, n)))
	return &Hybrid{
		name:   "hybrid-arr-treap",
		thresh: uint32(thresh),
		isTr:   make([]bool, n),
		arr:    newArrCore(n, arena.ClassSize(first), 0),
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
	s.insert(sh, u, v, t)
	sh.mu.Unlock()
	s.live.Add(1)
}

// insert adds u->v with label t; called with u's shard mutex held. An
// array-mode vertex at the threshold migrates before the tuple lands,
// so it never grows a block only to free it: the treap sees the array's
// tuples and then this one, the order migrating afterwards would give.
func (s *Hybrid) insert(sh *treapShard, u, v edge.ID, t uint32) {
	if !s.isTr[u] && s.arr.alive[u] >= s.thresh {
		s.migrate(sh, u)
	}
	if s.isTr[u] {
		s.roots[u] = sh.insert(s.roots[u], v, t)
		s.deg[u]++
	} else {
		s.arr.insert(u, v, t)
	}
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
	if s.live.Load() == 0 {
		s.presize(workers, batch, perm, bounds)
	}
	par.ForDynamic(workers, len(bounds)-1, 8, func(glo, ghi int) {
		for g := glo; g < ghi; g++ {
			grp := perm[bounds[g]:bounds[g+1]]
			u := batch[grp[0]].U
			sh := s.pool.shard(u)
			sh.mu.Lock()
			s.fitGroup(sh, u, batch, grp)
			var delta int64
			for _, i := range grp {
				up := &batch[i]
				if up.Op == edge.Insert {
					s.insert(sh, u, up.V, up.T)
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

// fitGroup readies u for its batch group's inserts before they apply;
// called with u's shard mutex held. A group that cannot take an
// array-mode u past the threshold grows u's block once, to
// ClassSize(len + inserts). An all-insert group that does takes u to
// treap mode first, so its inserts go straight to the treap. A mixed
// group that might cross is left to insert's own migration. None of
// this changes the order tuples reach the array or the treap, so the
// priority draws and the treap are those of one Insert at a time.
func (s *Hybrid) fitGroup(sh *treapShard, u edge.ID, batch []edge.Update, grp []uint32) {
	if s.isTr[u] {
		return
	}
	k := 0
	for _, i := range grp {
		if batch[i].Op == edge.Insert {
			k++
		}
	}
	switch {
	case int(s.arr.alive[u])+k <= int(s.thresh):
		s.arr.reserve(u, int(s.arr.length[u])+k)
	case k == len(grp):
		s.migrate(sh, u)
	}
}

// presize sizes the treap shards' node slices for a batch applied to an
// empty store (a bulk load), so they carry no append-growth slack. Every
// all-insert group past the threshold goes straight to treap mode, one
// node per distinct neighbor; each shard grows once to hold its groups'
// nodes. Later batches grow the slices by append.
func (s *Hybrid) presize(workers int, batch []edge.Update, perm []uint32, bounds []int) {
	nodes := make([]int, len(bounds)-1)
	par.ForDynamic(workers, len(nodes), 8, func(glo, ghi int) {
		var vs []uint32
	group:
		for g := glo; g < ghi; g++ {
			grp := perm[bounds[g]:bounds[g+1]]
			if len(grp) <= int(s.thresh) {
				continue
			}
			vs = vs[:0]
			for _, i := range grp {
				if batch[i].Op != edge.Insert {
					continue group
				}
				vs = append(vs, batch[i].V)
			}
			slices.Sort(vs)
			nodes[g] = len(slices.Compact(vs))
		}
	})
	need := make([]int, len(s.pool.shards))
	for g, c := range nodes {
		need[batch[perm[bounds[g]]].U&s.pool.mask] += c
	}
	for i, c := range need {
		if c == 0 {
			continue
		}
		sh := &s.pool.shards[i]
		sh.mu.Lock()
		sh.nodes = slices.Grow(sh.nodes, max(0, c-len(sh.free)))
		sh.mu.Unlock()
	}
}

// SizeBytes reports the memory the store holds: arena chunk capacity
// (free-listed blocks included), treap node and free-index capacity,
// and the per-vertex arrays.
func (s *Hybrid) SizeBytes() int64 {
	b := 8*s.arr.ar.Stats().EntriesReserved +
		int64(cap(s.arr.data))*int64(unsafe.Sizeof([]uint64(nil))) +
		4*int64(cap(s.arr.length)+cap(s.arr.alive)+cap(s.roots)+cap(s.deg)) + int64(cap(s.isTr)) +
		int64(len(s.pool.shards))*int64(unsafe.Sizeof(treapShard{}))
	for i := range s.pool.shards {
		sh := &s.pool.shards[i]
		sh.mu.Lock()
		b += int64(cap(sh.nodes))*int64(unsafe.Sizeof(tnode{})) + 4*int64(cap(sh.free))
		sh.mu.Unlock()
	}
	return b
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
