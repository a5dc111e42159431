package dyngraph

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"snapdyn/internal/arena"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// DefaultDegreeThresh is the paper's recommended degree-thresh for
// synthetic R-MAT small-world graphs: adjacency lists up to this size use
// arrays, larger ones move to the keyed heavy form.
const DefaultDegreeThresh = 32

// hybridShards is the number of lock shards of a Hybrid.
const hybridShards = 512

// Hybrid is the paper's Hybrid-arr-treap representation with the treaps
// replaced by sorted blocks: dynamic arrays for the (majority)
// low-degree vertices, and for the heavy ones an ordered list of
// fixed-capacity arena blocks of packed 8-byte tuples sorted by neighbor
// (see blockList). Inserts are array-fast for most vertices; deletes on
// the heavy vertices — where Dyn-arr pays O(d) scans — take
// O(log d + B) time for blocks of B tuples. A heavy vertex is in keyed
// order: its tuples ascend by neighbor, a neighbor of multiplicity c is
// c consecutive tuples, and all of them carry the label of its last
// insert, as a treap node would; Delete and DeleteTuple remove one copy
// whatever its label.
//
// A vertex's adjacency moves from array to blocks when its live degree
// rises past degree-thresh and back when it falls to it again, so the
// representation is a function of the live degree alone: a store
// rebuilt from a dump of another's arcs (a recovered checkpoint) is in
// the same modes, and answers the next update the same way, as the
// store that got there by inserts and deletes.
//
// Synchronization: every operation on vertex u runs under the mutex of
// u's lock shard, which also makes the moves between modes atomic. With
// hundreds of shards, cross-vertex contention is negligible; per-vertex
// contention (the phenomenon the paper studies) behaves as with
// per-vertex locks.
type Hybrid struct {
	name   string
	thresh uint32
	bcap   int
	arr    arrCore
	heavy  []*blockList // non-nil = heavy mode; guarded by the lock shard
	locks  []lockShard
	live   atomic.Int64
}

// lockShard is one padded lock-shard mutex.
type lockShard struct {
	sync.Mutex
	_ [56]byte
}

var _ Store = (*Hybrid)(nil)

// NewHybrid creates a hybrid store over n vertices with the given degree
// threshold (0 uses DefaultDegreeThresh), expecting about expectedEdges
// insertions. expectedEdges sizes a vertex's first array block by the
// paper's k·m/n rule, capped at the threshold, past which the vertex
// leaves array mode. Nothing is reserved up front: the arena grows with
// what is loaded, and ApplyBatch sizes a vertex's array block, and packs
// a bulk-loaded heavy vertex's blocks, from the batch itself. seed is
// unused: the store draws nothing at random (it seeded the treap
// priorities of the heavy side this representation replaced).
func NewHybrid(n, expectedEdges, thresh int, seed uint64) *Hybrid {
	if thresh <= 0 {
		thresh = DefaultDegreeThresh
	}
	first := min(thresh, max(2, 2*expectedEdges/max(1, n)))
	return &Hybrid{
		name:   "hybrid-arr-treap",
		thresh: uint32(thresh),
		bcap:   blockCap,
		arr:    newArrCore(n, arena.ClassSize(first), 0),
		heavy:  make([]*blockList, n),
		locks:  make([]lockShard, hybridShards),
	}
}

// lock returns u's lock shard.
func (s *Hybrid) lock(u edge.ID) *lockShard {
	return &s.locks[u&(hybridShards-1)]
}

// DegreeThresh returns the migration threshold.
func (s *Hybrid) DegreeThresh() int { return int(s.thresh) }

// Name implements Store.
func (s *Hybrid) Name() string { return s.name }

// NumVertices implements Store.
func (s *Hybrid) NumVertices() int { return len(s.heavy) }

// NumEdges implements Store.
func (s *Hybrid) NumEdges() int64 { return s.live.Load() }

// IsHeavy reports whether u is currently held in sorted blocks.
func (s *Hybrid) IsHeavy(u edge.ID) bool {
	mu := s.lock(u)
	mu.Lock()
	h := s.heavy[u] != nil
	mu.Unlock()
	return h
}

// Insert implements Store.
func (s *Hybrid) Insert(u, v edge.ID, t uint32) {
	mu := s.lock(u)
	mu.Lock()
	s.insert(u, v, t)
	mu.Unlock()
	s.live.Add(1)
}

// insert adds u->v with label t; called with u's lock held. An
// array-mode vertex at the threshold migrates before the tuple lands,
// so it never grows a block only to free it: the blocks see the array's
// tuples and then this one, the order migrating afterwards would give.
func (s *Hybrid) insert(u, v edge.ID, t uint32) {
	if s.heavy[u] == nil && s.arr.alive[u] >= s.thresh {
		s.migrate(u)
	}
	if l := s.heavy[u]; l != nil {
		l.insert(s.arr.ar, v, t)
	} else {
		s.arr.insert(u, v, t)
	}
}

// migrate converts u's adjacency from array to blocks; called with u's
// lock held. The array is sorted in place by neighbor, stably, so each
// neighbor's run keeps the label of its last tuple in array order.
func (s *Hybrid) migrate(u edge.ID) {
	s.arr.compact(u)
	d := s.arr.data[u][:s.arr.length[u]]
	slices.SortStableFunc(d, func(a, b uint64) int { return cmp.Compare(a>>32, b>>32) })
	s.heavy[u] = newBlockList(s.arr.ar, s.bcap, len(d),
		func(j int) edge.ID { return uint32(d[j] >> 32) },
		func(j int) uint32 { return uint32(d[j]) })
	s.arr.reset(u)
}

// packGroup builds u's blocks straight from an all-insert batch group
// that takes an empty u past the threshold; called with u's lock held.
// The group is sorted in place by (neighbor, batch position), so each
// neighbor's run takes its last label in batch order.
func (s *Hybrid) packGroup(u edge.ID, batch []edge.Update, grp []uint32) {
	slices.SortFunc(grp, func(a, b uint32) int {
		if c := cmp.Compare(batch[a].V, batch[b].V); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.arr.reset(u)
	s.heavy[u] = newBlockList(s.arr.ar, s.bcap, len(grp),
		func(j int) edge.ID { return batch[grp[j]].V },
		func(j int) uint32 { return batch[grp[j]].T })
}

// demote converts u's adjacency from blocks back to array form, in key
// order, each neighbor repeated by its multiplicity under its one
// label; called with u's lock held.
func (s *Hybrid) demote(u edge.ID) {
	l := s.heavy[u]
	s.arr.reserve(u, int(l.deg), 0)
	l.walk(func(v edge.ID, t uint32) bool {
		s.arr.insert(u, v, t)
		return true
	})
	l.free(s.arr.ar)
	s.heavy[u] = nil
}

// deleteHeavy removes one tuple u->v from u's blocks, demoting u when
// its degree falls back to the threshold; called with u's lock held.
func (s *Hybrid) deleteHeavy(u, v edge.ID) bool {
	l := s.heavy[u]
	ok := l.remove(s.arr.ar, v)
	if ok && l.deg <= s.thresh {
		s.demote(u)
	}
	return ok
}

// Delete implements Store.
func (s *Hybrid) Delete(u, v edge.ID) bool {
	mu := s.lock(u)
	mu.Lock()
	var ok bool
	if s.heavy[u] != nil {
		ok = s.deleteHeavy(u, v)
	} else {
		ok = s.arr.delete(u, v)
	}
	mu.Unlock()
	if ok {
		s.live.Add(-1)
	}
	return ok
}

// DeleteTuple implements Store: an exact-tuple scan in array mode, a
// logarithmic keyed removal in heavy mode.
func (s *Hybrid) DeleteTuple(u, v edge.ID, t uint32) bool {
	mu := s.lock(u)
	mu.Lock()
	var ok bool
	if s.heavy[u] != nil {
		ok = s.deleteHeavy(u, v)
	} else {
		ok = s.arr.deleteTuple(u, v, t)
	}
	mu.Unlock()
	if ok {
		s.live.Add(-1)
	}
	return ok
}

// Degree implements Store.
func (s *Hybrid) Degree(u edge.ID) int {
	mu := s.lock(u)
	mu.Lock()
	var d int
	if l := s.heavy[u]; l != nil {
		d = int(l.deg)
	} else {
		d = int(s.arr.alive[u])
	}
	mu.Unlock()
	return d
}

// Has implements Store.
func (s *Hybrid) Has(u, v edge.ID) bool {
	mu := s.lock(u)
	mu.Lock()
	defer mu.Unlock()
	if l := s.heavy[u]; l != nil {
		return l.has(v)
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
	mu := s.lock(u)
	mu.Lock()
	defer mu.Unlock()
	if l := s.heavy[u]; l != nil {
		l.walk(fn)
		return
	}
	s.arr.iterate(u, fn)
}

// ReadKeys implements KeyedReader: a heavy vertex is in keyed order, an
// array-mode one (per-tuple labels, insertion order) is not.
func (s *Hybrid) ReadKeys(u edge.ID, keys []edge.ID, cnt, ts []uint32) (int, bool) {
	mu := s.lock(u)
	mu.Lock()
	defer mu.Unlock()
	l := s.heavy[u]
	if l == nil {
		return int(s.arr.alive[u]), false
	}
	l.readKeys(keys, cnt, ts)
	return int(l.deg), true
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
			grp := perm[bounds[g]:bounds[g+1]]
			u := batch[grp[0]].U
			mu := s.lock(u)
			mu.Lock()
			delta := s.applyGroup(u, batch, grp)
			mu.Unlock()
			s.live.Add(delta)
		}
	})
}

// applyGroup applies u's batch group in batch order and returns the
// change in live tuples; called with u's lock held. A group that cannot
// take an array-mode u past the threshold makes room in u's block once
// for its inserts (see arrCore.reserve). An all-insert group that does goes straight
// to blocks: packed from the sorted group when u is empty (a bulk
// load), after migrating u's array otherwise. A mixed group that might
// cross is left to insert's own migration. None of this changes what
// one Insert or DeleteTuple at a time would leave.
func (s *Hybrid) applyGroup(u edge.ID, batch []edge.Update, grp []uint32) int64 {
	if s.heavy[u] == nil {
		k := 0
		for _, i := range grp {
			if batch[i].Op == edge.Insert {
				k++
			}
		}
		switch {
		case int(s.arr.alive[u])+k <= int(s.thresh):
			s.arr.reserve(u, k, 0)
		case k == len(grp) && s.arr.alive[u] == 0:
			s.packGroup(u, batch, grp)
			return int64(k)
		case k == len(grp):
			s.migrate(u)
		}
	}
	var delta int64
	for _, i := range grp {
		up := &batch[i]
		if up.Op == edge.Insert {
			s.insert(u, up.V, up.T)
			delta++
			continue
		}
		var ok bool
		if s.heavy[u] != nil {
			ok = s.deleteHeavy(u, up.V)
		} else {
			ok = s.arr.deleteTuple(u, up.V, up.T)
		}
		if ok {
			delta--
		}
	}
	return delta
}

// SizeBytes reports the memory the store holds: arena chunk capacity
// (free-listed blocks included, heavy blocks among them), the per-vertex
// arrays and lock shards, and each heavy vertex's block index.
func (s *Hybrid) SizeBytes() int64 {
	b := 8*s.arr.ar.Stats().EntriesReserved +
		int64(cap(s.arr.data))*int64(unsafe.Sizeof([]uint64(nil))) +
		4*int64(cap(s.arr.length)+cap(s.arr.alive)) +
		int64(cap(s.heavy))*int64(unsafe.Sizeof((*blockList)(nil))) +
		int64(len(s.locks))*int64(unsafe.Sizeof(lockShard{}))
	s.eachHeavy(func(l *blockList) {
		b += int64(unsafe.Sizeof(*l)) + int64(cap(l.blocks))*int64(unsafe.Sizeof(hblock{}))
	})
	return b
}

// HeavyVertexCount returns how many vertices are in heavy mode, for
// stats and tests.
func (s *Hybrid) HeavyVertexCount() int {
	c := 0
	s.eachHeavy(func(*blockList) { c++ })
	return c
}

// eachHeavy calls fn on every heavy vertex's blocks, each under its
// vertex's lock.
func (s *Hybrid) eachHeavy(fn func(l *blockList)) {
	for sh := range s.locks {
		mu := &s.locks[sh]
		mu.Lock()
		for u := sh; u < len(s.heavy); u += len(s.locks) {
			if l := s.heavy[u]; l != nil {
				fn(l)
			}
		}
		mu.Unlock()
	}
}
