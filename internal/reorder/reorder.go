// Package reorder implements the vertex relabeling the paper lists as
// future work ("vertex and edge identifier reordering strategies to
// improve cache performance"): degree ordering, which gives hubs the
// small ids so hot adjacency data clusters at the front of the arrays,
// plus the machinery to apply a permutation to a CSR snapshot and to
// compose one with the incremental delta-refresh path. BFS and reverse
// Cuthill-McKee orderings were also built and measured on the served
// read-cold workload; degree ordering beat both, and they were removed.
package reorder

import (
	"sort"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// storeView is the minimal dynamic-graph surface the permuted refresh
// needs; it matches dyngraph.Store without importing it.
type storeView interface {
	NumVertices() int
	Degree(u edge.ID) int
	Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool)
}

// Permutation maps old vertex ids to new ones: newID = perm[oldID]. A
// valid permutation is a bijection on [0, n).
type Permutation []uint32

// Valid reports whether p is a bijection.
func (p Permutation) Valid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns q with q[p[i]] = i.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for i, v := range p {
		q[v] = uint32(i)
	}
	return q
}

// ByDegree returns the permutation placing vertices in decreasing degree
// order (ties broken by old id for determinism): hubs first.
func ByDegree(g *csr.Graph) Permutation {
	order := make([]uint32, g.N)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	perm := make(Permutation, g.N)
	for newID, oldID := range order {
		perm[oldID] = uint32(newID)
	}
	return perm
}

// Apply relabels a CSR snapshot under the permutation in parallel,
// returning a graph where vertex perm[u] has u's (relabeled) adjacency.
func Apply(workers int, g *csr.Graph, perm Permutation) *csr.Graph {
	return ApplyInto(workers, g, perm, nil, nil)
}

// ApplyInto is Apply reusing caller-owned buffers: out's slices are grown
// only when too small, and inv (perm's precomputed inverse) skips the
// per-call inverse build. Either may be nil, in which case it is
// allocated. With workers == 1 and warm buffers the call allocates
// nothing — the refresh path leans on this. Returns out.
func ApplyInto(workers int, g *csr.Graph, perm, inv Permutation, out *csr.Graph) *csr.Graph {
	n := g.N
	if inv == nil {
		inv = perm.Inverse()
	}
	if out == nil {
		out = &csr.Graph{}
	}
	total := g.NumEdges()
	out.N = n
	if cap(out.Offsets) < n+1 {
		out.Offsets = make([]int64, n+1)
	}
	out.Offsets = out.Offsets[:n+1]
	if int64(cap(out.Adj)) < total {
		out.Adj = make([]uint32, total)
		out.TS = make([]uint32, total)
	}
	out.Adj = out.Adj[:total]
	out.TS = out.TS[:total]
	off := out.Offsets
	if workers == 1 {
		// Closure-free serial path: the loop bodies below are what keeps
		// a warm single-worker ApplyInto at 0 allocs/op.
		for nu := 0; nu < n; nu++ {
			off[nu] = g.Degree(inv[nu])
		}
		off[n] = 0
		var sum int64
		for i := 0; i <= n; i++ {
			c := off[i]
			off[i] = sum
			sum += c
		}
		for nu := 0; nu < n; nu++ {
			adj, ts := g.Neighbors(inv[nu])
			p := off[nu]
			for i := range adj {
				out.Adj[p] = perm[adj[i]]
				out.TS[p] = ts[i]
				p++
			}
		}
		return out
	}
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for nu := lo; nu < hi; nu++ {
			off[nu] = g.Degree(inv[nu])
		}
	})
	off[n] = 0
	psort.ExclusiveScan(workers, off)
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for nu := lo; nu < hi; nu++ {
			adj, ts := g.Neighbors(inv[nu])
			p := off[nu]
			for i := range adj {
				out.Adj[p] = perm[adj[i]]
				out.TS[p] = ts[i]
				p++
			}
		}
	})
	return out
}

// FromStorePermuted snapshots a dynamic graph store directly into
// permuted CSR form: vertex perm[u] holds u's arcs (heads relabeled
// through perm) in store enumeration order, byte-identical to
// Apply(csr.FromStore(s), perm) without materializing the unpermuted
// intermediate.
func FromStorePermuted(workers int, s storeView, perm, inv Permutation) *csr.Graph {
	n := s.NumVertices()
	counts := make([]int64, n+1)
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for nu := lo; nu < hi; nu++ {
			counts[nu] = int64(s.Degree(edge.ID(inv[nu])))
		}
	})
	total := psort.ExclusiveScan(workers, counts)
	out := &csr.Graph{
		N:       n,
		Offsets: counts,
		Adj:     make([]uint32, total),
		TS:      make([]uint32, total),
	}
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for nu := lo; nu < hi; nu++ {
			p := out.Offsets[nu]
			s.Neighbors(edge.ID(inv[nu]), func(v edge.ID, t uint32) bool {
				out.Adj[p] = perm[v]
				out.TS[p] = t
				p++
				return true
			})
		}
	})
	return out
}

// RefreshPermuted composes the incremental delta refresh with a held
// permutation: base is the previous *permuted* snapshot, dirty lists
// store-space (original) vertex ids, and the output is byte-identical to
// FromStorePermuted over the current store. Clean vertices' arc spans
// are bulk-copied from base; dirty vertices re-enumerate the store with
// heads mapped through perm. Falls back to a full permuted rebuild when
// there is no usable base, the vertex count no longer matches the
// permutation (the permutation is stale — the caller should recompute
// it), or the dirty fraction exceeds csr.RefreshMaxDirtyFrac.
func RefreshPermuted(workers int, base *csr.Graph, s storeView, dirty []uint32, perm, inv Permutation) *csr.Graph {
	n := s.NumVertices()
	if n != len(perm) || base == nil || base.N != n || n == 0 ||
		float64(len(dirty)) > csr.RefreshMaxDirtyFrac*float64(n) {
		if n != len(perm) {
			return nil // stale permutation: the caller must recompute
		}
		return FromStorePermuted(workers, s, perm, inv)
	}
	if len(dirty) == 0 {
		return base
	}
	// Mark dirty in layout space and take exact degrees from the store.
	pdirty := make([]bool, n)
	counts := make([]int64, n+1)
	par.ForDynamic(workers, n, 512, func(lo, hi int) {
		for nu := lo; nu < hi; nu++ {
			counts[nu] = base.Offsets[nu+1] - base.Offsets[nu]
		}
	})
	for _, d := range dirty {
		if int(d) >= n {
			continue
		}
		nu := perm[d]
		pdirty[nu] = true
		counts[nu] = int64(s.Degree(edge.ID(d)))
	}
	total := psort.ExclusiveScan(workers, counts)
	out := &csr.Graph{
		N:       n,
		Offsets: counts,
		Adj:     make([]uint32, total),
		TS:      make([]uint32, total),
	}
	par.ForDynamic(workers, n, 512, func(lo, hi int) {
		for nu := lo; nu < hi; {
			if pdirty[nu] {
				p := out.Offsets[nu]
				s.Neighbors(edge.ID(inv[nu]), func(v edge.ID, t uint32) bool {
					out.Adj[p] = perm[v]
					out.TS[p] = t
					p++
					return true
				})
				nu++
				continue
			}
			run := nu + 1
			for run < hi && !pdirty[run] {
				run++
			}
			copy(out.Adj[out.Offsets[nu]:out.Offsets[run]],
				base.Adj[base.Offsets[nu]:base.Offsets[run]])
			copy(out.TS[out.Offsets[nu]:out.Offsets[run]],
				base.TS[base.Offsets[nu]:base.Offsets[run]])
			nu = run
		}
	})
	return out
}

// Identity returns the identity permutation over n vertices.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}
