package dyngraph

import (
	"sync/atomic"

	"snapdyn/internal/arena"
	"snapdyn/internal/edge"
)

// arrCore is the unsynchronized resizable-adjacency-array engine shared
// by DynArr and Hybrid. Callers must hold the owning vertex's lock.
type arrCore struct {
	ar         *arena.Arena
	length     []uint32 // slots used, including tombstones
	alive      []uint32 // live tuples
	data       [][]uint64
	initialCap int
	noResize   bool
}

func newArrCore(n, initialCap, expectedEdges int) arrCore {
	return arrCore{
		ar:         arena.New(expectedEdges + expectedEdges/4),
		length:     make([]uint32, n),
		alive:      make([]uint32, n),
		data:       make([][]uint64, n),
		initialCap: initialCap,
	}
}

// insert appends the tuple u->v.
func (c *arrCore) insert(u, v edge.ID, t uint32) {
	if d := c.data[u]; int(c.length[u]) == len(d) {
		if c.noResize {
			panic("dyngraph: Dyn-arr-nr adjacency overflow (degrees underestimated)")
		}
		grow := 2 * len(d)
		if grow == 0 {
			grow = c.initialCap
		}
		c.reserve(u, 1, grow)
	}
	l := c.length[u]
	c.data[u][l] = pack(v, t)
	c.length[u] = l + 1
	c.alive[u]++
}

// reserve makes room in u's block for k more tuples. A block short of
// them that is at least half tombstones is compacted in place, so churn
// reuses deleted slots; any other moves to a block of max(grow,
// length+k) tuples.
func (c *arrCore) reserve(u edge.ID, k, grow int) {
	d, l := c.data[u], int(c.length[u])
	if l+k <= len(d) {
		return
	}
	if l > 0 && int(c.alive[u]) <= l/2 {
		c.compact(u)
		if l = int(c.length[u]); l+k <= len(d) {
			return
		}
	}
	nd := c.ar.Alloc(max(grow, l+k))
	copy(nd, d[:l])
	c.data[u] = nd
	if d != nil {
		c.ar.Free(d)
	}
}

// delete tombstones one matching tuple, reporting success.
func (c *arrCore) delete(u, v edge.ID) bool {
	d := c.data[u][:c.length[u]]
	for i, e := range d {
		if uint32(e>>32) == v {
			d[i] = pack(tombstone, uint32(e))
			c.alive[u]--
			return true
		}
	}
	return false
}

// deleteTuple tombstones the exact (v, t) tuple, scanning the whole list
// to locate it; it falls back to any v-tuple when the labeled one is
// absent (or t is the wildcard edge.NoTime).
func (c *arrCore) deleteTuple(u, v edge.ID, t uint32) bool {
	if t == edge.NoTime {
		return c.delete(u, v)
	}
	d := c.data[u][:c.length[u]]
	fallback := -1
	want := pack(v, t)
	for i, e := range d {
		if e == want {
			d[i] = pack(tombstone, uint32(e))
			c.alive[u]--
			return true
		}
		if fallback < 0 && uint32(e>>32) == v {
			fallback = i
		}
	}
	if fallback >= 0 {
		d[fallback] = pack(tombstone, uint32(d[fallback]))
		c.alive[u]--
		return true
	}
	return false
}

// iterate visits live tuples until fn returns false.
func (c *arrCore) iterate(u edge.ID, fn func(v edge.ID, t uint32) bool) {
	d := c.data[u][:c.length[u]]
	for _, e := range d {
		if isTombstone(e) {
			continue
		}
		if !fn(unpack(e)) {
			return
		}
	}
}

// compact rewrites u's array without tombstones.
func (c *arrCore) compact(u edge.ID) {
	d := c.data[u][:c.length[u]]
	w := uint32(0)
	for _, e := range d {
		if !isTombstone(e) {
			d[w] = e
			w++
		}
	}
	c.length[u] = w
}

// reset empties u's adjacency, returning its block to the arena.
func (c *arrCore) reset(u edge.ID) {
	if d := c.data[u]; d != nil {
		c.ar.Free(d)
	}
	c.data[u] = nil
	c.length[u] = 0
	c.alive[u] = 0
}

// DynArr is the paper's Dyn-arr representation: one resizable adjacency
// array per vertex, backed by an arena allocator, doubling on overflow.
// Insertions append in O(1); deletions scan the array and tombstone the
// matching slot in place, which is cheap for low-degree vertices and O(d)
// for high-degree ones — the asymmetry Figure 5 quantifies.
type DynArr struct {
	name  string
	locks []spinLock
	core  arrCore
	live  atomic.Int64
}

var _ Store = (*DynArr)(nil)

// NewDynArr creates a Dyn-arr store over n vertices expecting about
// expectedEdges insertions in total. Each adjacency array starts at the
// paper's k·m/n entries with k = 2 (rounded to the allocator size class),
// and doubles on overflow. Arrays are allocated lazily on first insert.
func NewDynArr(n, expectedEdges int) *DynArr {
	ic := 2
	if n > 0 && expectedEdges > 0 {
		ic = max(2, 2*expectedEdges/n)
	}
	return newDynArr("dyn-arr", n, arena.ClassSize(ic), expectedEdges)
}

// NewDynArrInitial creates a Dyn-arr with an explicit initial adjacency
// array size (Figure 2 uses 16).
func NewDynArrInitial(n, initialCap, expectedEdges int) *DynArr {
	return newDynArr("dyn-arr", n, arena.ClassSize(max(1, initialCap)), expectedEdges)
}

// NewDynArrNoResize creates the Dyn-arr-nr variant: the exact out-degree
// of every vertex is known a priori, so adjacency arrays are sized once
// and never resized. It is the optimal-case baseline of Figures 1-3.
func NewDynArrNoResize(degrees []int) *DynArr {
	total := 0
	for _, d := range degrees {
		total += arena.ClassSize(max(1, d))
	}
	s := newDynArr("dyn-arr-nr", len(degrees), 0, total)
	s.core.noResize = true
	for u, d := range degrees {
		s.core.data[u] = s.core.ar.Alloc(max(1, d))
	}
	return s
}

func newDynArr(name string, n, initialCap, expectedEdges int) *DynArr {
	return &DynArr{
		name:  name,
		locks: make([]spinLock, n),
		core:  newArrCore(n, initialCap, expectedEdges),
	}
}

// Name implements Store.
func (s *DynArr) Name() string { return s.name }

// NumVertices implements Store.
func (s *DynArr) NumVertices() int { return len(s.core.data) }

// NumEdges implements Store.
func (s *DynArr) NumEdges() int64 { return s.live.Load() }

// Insert implements Store.
func (s *DynArr) Insert(u, v edge.ID, t uint32) {
	s.locks[u].lock()
	s.core.insert(u, v, t)
	s.locks[u].unlock()
	s.live.Add(1)
}

// Delete implements Store.
func (s *DynArr) Delete(u, v edge.ID) bool {
	s.locks[u].lock()
	ok := s.core.delete(u, v)
	s.locks[u].unlock()
	if ok {
		s.live.Add(-1)
	}
	return ok
}

// DeleteTuple implements Store.
func (s *DynArr) DeleteTuple(u, v edge.ID, t uint32) bool {
	s.locks[u].lock()
	ok := s.core.deleteTuple(u, v, t)
	s.locks[u].unlock()
	if ok {
		s.live.Add(-1)
	}
	return ok
}

// Degree implements Store.
func (s *DynArr) Degree(u edge.ID) int {
	s.locks[u].lock()
	d := int(s.core.alive[u])
	s.locks[u].unlock()
	return d
}

// Has implements Store.
func (s *DynArr) Has(u, v edge.ID) bool {
	found := false
	s.Neighbors(u, func(w edge.ID, _ uint32) bool {
		if w == v {
			found = true
			return false
		}
		return true
	})
	return found
}

// Neighbors implements Store.
func (s *DynArr) Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool) {
	s.locks[u].lock()
	defer s.locks[u].unlock()
	s.core.iterate(u, fn)
}

// ApplyBatch implements Store.
func (s *DynArr) ApplyBatch(workers int, batch []edge.Update) {
	applyConcurrent(s, workers, batch)
}

// Compact rewrites u's adjacency array without tombstones, reclaiming
// slots. It is not part of the paper's design (deletions only mark) but is
// provided for long-running streams.
func (s *DynArr) Compact(u edge.ID) {
	s.locks[u].lock()
	s.core.compact(u)
	s.locks[u].unlock()
}

// Slots returns the number of occupied slots (live + tombstoned) of u,
// exposing fragmentation for tests and stats.
func (s *DynArr) Slots(u edge.ID) int {
	s.locks[u].lock()
	defer s.locks[u].unlock()
	return int(s.core.length[u])
}

// ArenaStats exposes allocator statistics (resize traffic).
func (s *DynArr) ArenaStats() arena.Stats { return s.core.ar.Stats() }
