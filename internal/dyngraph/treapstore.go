package dyngraph

import (
	"sync/atomic"

	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// defaultTreapShards bounds lock contention for treap stores: operations
// on vertices in different shards proceed in parallel.
const defaultTreapShards = 512

// TreapStore represents every adjacency list as a randomized treap
// (Seidel & Aragon), the paper's choice of self-balancing structure for
// deletion-heavy workloads: search, insert and delete are all
// average-case O(log d). The memory footprint is ~3x Dyn-arr's 8-byte
// entries (24-byte nodes), matching the paper's reported 2-4x.
type TreapStore struct {
	name  string
	pool  *treapPool
	roots []uint32
	deg   []uint32 // live tuple count per vertex
	live  atomic.Int64
}

var _ Store = (*TreapStore)(nil)

// NewTreapStore creates a treap store over n vertices.
func NewTreapStore(n int, seed uint64) *TreapStore {
	roots := make([]uint32, n)
	for i := range roots {
		roots[i] = nilNode
	}
	return &TreapStore{
		name:  "treaps",
		pool:  newTreapPool(defaultTreapShards, seed),
		roots: roots,
		deg:   make([]uint32, n),
	}
}

// Name implements Store.
func (s *TreapStore) Name() string { return s.name }

// NumVertices implements Store.
func (s *TreapStore) NumVertices() int { return len(s.roots) }

// NumEdges implements Store.
func (s *TreapStore) NumEdges() int64 { return s.live.Load() }

// Insert implements Store. Note the coarser lock granularity compared to
// Dyn-arr: the treap may rebalance at every step, so the whole operation
// runs inside the shard lock — the paper's "granularity of work inside a
// lock is significantly higher" observation.
func (s *TreapStore) Insert(u, v edge.ID, t uint32) {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	s.roots[u] = sh.insert(s.roots[u], v, t)
	s.deg[u]++
	sh.mu.Unlock()
	s.live.Add(1)
}

// Delete implements Store.
func (s *TreapStore) Delete(u, v edge.ID) bool {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	root, ok := sh.deleteKey(s.roots[u], v)
	s.roots[u] = root
	if ok {
		s.deg[u]--
	}
	sh.mu.Unlock()
	if ok {
		s.live.Add(-1)
	}
	return ok
}

// DeleteTuple implements Store. Treaps key tuples by neighbor id, so the
// exact tuple is located in O(log d) regardless of the time label — the
// structural advantage Figure 5 measures.
func (s *TreapStore) DeleteTuple(u, v edge.ID, _ uint32) bool {
	return s.Delete(u, v)
}

// Degree implements Store.
func (s *TreapStore) Degree(u edge.ID) int {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	d := int(s.deg[u])
	sh.mu.Unlock()
	return d
}

// Has implements Store.
func (s *TreapStore) Has(u, v edge.ID) bool {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	ok := sh.find(s.roots[u], v) != nilNode
	sh.mu.Unlock()
	return ok
}

// Neighbors implements Store. Tuples are visited in increasing neighbor
// order, once per multiplicity; duplicates share the most recent time
// label (see package comment).
func (s *TreapStore) Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool) {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.walk(s.roots[u], func(key, ts, cnt uint32) bool {
		for i := uint32(0); i < cnt; i++ {
			if !fn(key, ts) {
				return false
			}
		}
		return true
	})
}

// ReadKeys implements KeyedReader; every vertex of a treap store is in
// keyed order.
func (s *TreapStore) ReadKeys(u edge.ID, keys []edge.ID, cnt, ts []uint32) (int, bool) {
	sh := s.pool.shard(u)
	sh.mu.Lock()
	sh.readKeys(s.roots[u], keys, cnt, ts)
	d := int(s.deg[u])
	sh.mu.Unlock()
	return d, true
}

// ApplyBatch implements Store using the semi-sort strategy: the batch is
// grouped by source vertex in parallel, then each vertex's updates are
// applied by a single worker in one locked pass. Randomly shuffled
// per-update application "might not be as effective as in the case of
// Dyn-arr" (coarse locks), so batching is the treap's preferred path.
func (s *TreapStore) ApplyBatch(workers int, batch []edge.Update) {
	if len(batch) <= applyChunk {
		applyConcurrent(s, workers, batch)
		return
	}
	keys := make([]uint32, len(batch))
	for i := range batch {
		keys[i] = batch[i].U
	}
	perm := psort.Order(workers, keys)
	// Group boundaries over the sorted permutation.
	bounds := groupBounds(keys, perm)
	par.ForDynamic(workers, len(bounds)-1, 8, func(glo, ghi int) {
		for g := glo; g < ghi; g++ {
			lo, hi := bounds[g], bounds[g+1]
			u := batch[perm[lo]].U
			sh := s.pool.shard(u)
			sh.mu.Lock()
			root := s.roots[u]
			var delta int64
			for i := lo; i < hi; i++ {
				up := batch[perm[i]]
				if up.Op == edge.Insert {
					root = sh.insert(root, up.V, up.T)
					s.deg[u]++
					delta++
				} else if nr, ok := sh.deleteKey(root, up.V); ok {
					root = nr
					s.deg[u]--
					delta--
				}
			}
			s.roots[u] = root
			sh.mu.Unlock()
			s.live.Add(delta)
		}
	})
}

// groupBounds returns indices delimiting runs of equal keys[perm[i]]:
// bounds[g]..bounds[g+1] is group g.
func groupBounds(keys []uint32, perm []uint32) []int {
	bounds := []int{0}
	for i := 1; i < len(perm); i++ {
		if keys[perm[i]] != keys[perm[i-1]] {
			bounds = append(bounds, i)
		}
	}
	return append(bounds, len(perm))
}

// IntersectKeys returns the neighbor ids adjacent to both a and b, in
// increasing order — the treap set-intersection kernel.
func (s *TreapStore) IntersectKeys(a, b edge.ID) []edge.ID {
	bs := neighborSet(s, b)
	var out []edge.ID
	prev := int64(-1)
	s.Neighbors(a, func(v edge.ID, _ uint32) bool {
		if int64(v) != prev && bs[v] {
			out = append(out, v)
		}
		prev = int64(v)
		return true
	})
	return out
}

// DifferenceKeys returns neighbor ids adjacent to a but not to b, in
// increasing order.
func (s *TreapStore) DifferenceKeys(a, b edge.ID) []edge.ID {
	bs := neighborSet(s, b)
	var out []edge.ID
	prev := int64(-1)
	s.Neighbors(a, func(v edge.ID, _ uint32) bool {
		if int64(v) != prev && !bs[v] {
			out = append(out, v)
		}
		prev = int64(v)
		return true
	})
	return out
}

func neighborSet(s Store, u edge.ID) map[edge.ID]bool {
	set := make(map[edge.ID]bool)
	s.Neighbors(u, func(v edge.ID, _ uint32) bool {
		set[v] = true
		return true
	})
	return set
}

// CheckInvariants verifies treap structural invariants (BST key order,
// heap priority order, positive multiplicities) for every vertex.
func (s *TreapStore) CheckInvariants() bool {
	for u := range s.roots {
		sh := s.pool.shard(edge.ID(u))
		sh.mu.Lock()
		ok := sh.checkInvariants(s.roots[u], -1, 1<<32)
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}
