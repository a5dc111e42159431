// Package csr builds compressed sparse row (adjacency array) snapshots of
// a graph, the cache-friendly static representation the paper's kernels
// (BFS, connected components, betweenness) traverse. Construction is
// parallel: a degree-counting pass, an exclusive prefix sum over offsets,
// and a scatter pass with per-vertex atomic cursors.
package csr

import (
	"sync/atomic"

	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// Graph is an immutable CSR snapshot. Arc i of vertex u is
// (Adj[Offsets[u]+i], TS[Offsets[u]+i]).
type Graph struct {
	N       int
	Offsets []int64 // length N+1
	Adj     []uint32
	TS      []uint32 // time labels, parallel to Adj

	// keyed is the bitmap FromStore and RefreshDelta leave for the next
	// RefreshDelta: bit u set = u's span was cut while the store kept u
	// in keyed order (ascending neighbor, one label per neighbor), so
	// it can be patched from touched keys. nil = no vertex is known to
	// be (another source, or a store without keyed order).
	keyed []uint64
}

// keyedAt reports whether u's span was cut in keyed order.
func (g *Graph) keyedAt(u edge.ID) bool {
	return g.keyed != nil && g.keyed[u>>6]&(1<<(u&63)) != 0
}

// NumEdges returns the number of stored arcs.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adj)) }

// SizeBytes returns the snapshot's in-memory footprint: the offset,
// adjacency, and time-label arrays (8 + 4 + 4 bytes per entry). The
// compressed representation reports the matching number through
// compress.Graph.FootprintBytes, so bytes-per-edge comparisons across
// formats are apples-to-apples. The keyed-order bitmap a store-cut
// snapshot carries for the next refresh (n/8 bytes) is counted.
func (g *Graph) SizeBytes() int64 {
	return 8*int64(len(g.Offsets)) + 4*int64(len(g.Adj)) + 4*int64(len(g.TS)) + 8*int64(len(g.keyed))
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u edge.ID) int64 { return g.Offsets[u+1] - g.Offsets[u] }

// Neighbors returns u's adjacency and time-label slices (views, do not
// modify).
func (g *Graph) Neighbors(u edge.ID) (adj []uint32, ts []uint32) {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	return g.Adj[lo:hi], g.TS[lo:hi]
}

// FromEdges builds a CSR over n vertices from an edge list in parallel.
// When undirected is set, each edge contributes both arcs.
func FromEdges(workers, n int, edges []edge.Edge, undirected bool) *Graph {
	counts := make([]int64, n+1)
	par.ForBlock(workers, len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &edges[i]
			atomic.AddInt64(&counts[e.U], 1)
			if undirected {
				atomic.AddInt64(&counts[e.V], 1)
			}
		}
	})
	total := psort.ExclusiveScan(workers, counts)
	g := &Graph{
		N:       n,
		Offsets: append([]int64(nil), counts...),
		Adj:     make([]uint32, total),
		TS:      make([]uint32, total),
	}
	// counts now holds the starting offset of each vertex; reuse it as
	// the scatter cursor array.
	cursors := counts
	par.ForBlock(workers, len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &edges[i]
			p := atomic.AddInt64(&cursors[e.U], 1) - 1
			g.Adj[p] = e.V
			g.TS[p] = e.T
			if undirected {
				q := atomic.AddInt64(&cursors[e.V], 1) - 1
				g.Adj[q] = e.U
				g.TS[q] = e.T
			}
		}
	})
	return g
}

// storeView is the minimal dynamic-graph surface csr needs; it matches
// dyngraph.Store without importing it.
type storeView interface {
	NumVertices() int
	Degree(u edge.ID) int
	Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool)
}

// FromStore snapshots a dynamic graph store into CSR form in parallel.
// Over a store with keyed read-back it also records which vertices were
// in keyed order, at no extra lock acquisition, so a later RefreshDelta
// can patch them.
func FromStore(workers int, s storeView) *Graph {
	n := s.NumVertices()
	counts := make([]int64, n+1)
	ks, _ := s.(keyedView)
	var keyed []uint64
	if ks != nil {
		keyed = make([]uint64, (n+63)/64)
	}
	// Chunks start at multiples of 256, so no bitmap word is shared
	// between workers.
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if ks == nil {
				counts[u] = int64(s.Degree(edge.ID(u)))
				continue
			}
			deg, k := ks.ReadKeys(edge.ID(u), nil, nil, nil)
			counts[u] = int64(deg)
			if k {
				keyed[u>>6] |= 1 << (u & 63)
			}
		}
	})
	total := psort.ExclusiveScan(workers, counts)
	g := &Graph{
		N:       n,
		Offsets: counts,
		Adj:     make([]uint32, total),
		TS:      make([]uint32, total),
		keyed:   keyed,
	}
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			p := g.Offsets[u]
			s.Neighbors(edge.ID(u), func(v edge.ID, t uint32) bool {
				g.Adj[p] = v
				g.TS[p] = t
				p++
				return true
			})
		}
	})
	return g
}

// DegreeSum returns the total out-degree of the given vertices, the
// "edge mass" quantity the direction-optimizing BFS heuristic compares
// against the unexplored edge count. Runs in parallel for large inputs;
// the serial path avoids the reduction closures so single-worker
// steady-state traversals stay allocation-free.
func (g *Graph) DegreeSum(workers int, vs []uint32) int64 {
	if workers == 1 || len(vs) < 4096 {
		var sum int64
		for _, v := range vs {
			sum += g.Degree(edge.ID(v))
		}
		return sum
	}
	return par.Reduce(workers, len(vs), int64(0),
		func(acc int64, i int) int64 { return acc + g.Degree(edge.ID(vs[i])) },
		func(a, b int64) int64 { return a + b })
}

// MaxDegree returns the largest out-degree, used by degree-aware kernels.
func (g *Graph) MaxDegree() int64 {
	return par.Reduce(0, g.N, int64(0),
		func(acc int64, u int) int64 { return max(acc, g.Degree(edge.ID(u))) },
		func(a, b int64) int64 { return max(a, b) })
}
