// Package cc implements parallel connected components over any snapshot
// layout (compress.Arcs: a CSR, a fleet's view set, or a compressed
// graph) using the Shiloach-Vishkin style hook-and-compress iteration the SNAP
// framework uses: repeatedly hook higher-labeled roots onto lower-labeled
// neighbors, then pointer-jump until the label forest flattens. On
// low-diameter small-world graphs the iteration count is small.
//
// The component labeling feeds link-cut forest construction
// (dynconn.Build) and component census queries.
package cc

import (
	"sync/atomic"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
)

// Components returns a label array: comp[u] == comp[v] iff u and v are in
// the same weakly-connected component (arcs are treated as undirected
// edges). Labels are canonical vertex ids (the minimum id reachable by
// the hooking process, a component representative).
func Components(workers int, g *csr.Graph) []uint32 {
	return ComponentsInto(workers, g, nil)
}

// ComponentsInto is Components into a caller-owned label slice, reused
// when its capacity covers the vertex set — the scratch-pool path that
// keeps repeated component queries at zero allocations.
func ComponentsInto(workers int, g *csr.Graph, comp []uint32) []uint32 {
	if workers != 1 {
		return ComponentsArcs(workers, compress.Arcs{Views: []*csr.Graph{g}}, comp)
	}
	// A one-view set on the stack: handed to ComponentsArcs, whose
	// parallel closures capture the set, it would move to the heap on
	// every call (escape analysis is not flow-sensitive).
	one := [1]*csr.Graph{g}
	return componentsSerial(compress.Arcs{Views: one[:]}, resetLabels(g.N, comp))
}

// ComponentsOver is ComponentsInto over a view set whose union is the
// graph: every view spans the same vertex ids, and vertex u's arcs are
// its span in views[u%len(views)] (a shard fleet's per-shard CSRs). The
// labels are the component minima of the union, identical to
// ComponentsInto on the merged graph.
func ComponentsOver(workers int, views []*csr.Graph, comp []uint32) []uint32 {
	return ComponentsArcs(workers, compress.Arcs{Views: views}, comp)
}

// ComponentsArcs is ComponentsInto over the arcs wherever they live: a
// view set or a compressed graph, whose blocks every hook pass decodes
// a run at a time. Arcs are treated as undirected edges on every
// layout, so a directed graph's labels are its weakly-connected
// components everywhere.
func ComponentsArcs(workers int, a compress.Arcs, comp []uint32) []uint32 {
	comp = resetLabels(a.N(), comp)
	// Dedicated serial path at workers == 1: the parallel fan-out lives
	// in its own function because its closures capture comp, which would
	// otherwise move the local to the heap on every call — the pooled
	// serving path must stay at zero allocations per query.
	if workers == 1 {
		return componentsSerial(a, comp)
	}
	componentsParallel(workers, a, comp)
	return comp
}

// resetLabels sizes comp for n vertices and makes every vertex its own
// label.
func resetLabels(n int, comp []uint32) []uint32 {
	if cap(comp) < n {
		comp = make([]uint32, n)
	} else {
		comp = comp[:n]
	}
	for i := range comp {
		comp[i] = uint32(i)
	}
	return comp
}

// componentsParallel is the hook-and-compress iteration with parallel
// fan-out per phase.
func componentsParallel(workers int, a compress.Arcs, comp []uint32) {
	n := len(comp)
	for {
		var changed atomic.Bool
		// Hook: for every arc (u,v), point the root of the larger label
		// at the smaller label.
		par.ForDynamic(workers, n, 256, func(lo, hi int) {
			var run compress.Run
			for u := uint32(lo); u < uint32(hi); u++ {
				var adj []uint32
				if a.C == nil {
					adj, _ = a.View(u).Neighbors(u)
				} else {
					adj, _ = a.C.Span(&run, u, false)
				}
				cu := atomic.LoadUint32(&comp[u])
				for {
					for _, v := range adj {
						cv := atomic.LoadUint32(&comp[v])
						if cu == cv {
							continue
						}
						hi32, lo32 := cu, cv
						if hi32 < lo32 {
							hi32, lo32 = lo32, hi32
						}
						// Hook root(hi) -> lo when hi is still a root; a
						// failed CAS just defers to a later iteration.
						if atomic.CompareAndSwapUint32(&comp[hi32], hi32, lo32) {
							changed.Store(true)
						}
						cu = atomic.LoadUint32(&comp[u])
					}
					if run.Left() == 0 {
						break
					}
					adj, _ = run.Next(false)
				}
			}
		})
		// Compress: full pointer jumping.
		par.ForDynamic(workers, n, 1024, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				c := atomic.LoadUint32(&comp[u])
				for {
					cc := atomic.LoadUint32(&comp[c])
					if cc == c {
						break
					}
					c = cc
				}
				atomic.StoreUint32(&comp[u], c)
			}
		})
		if !changed.Load() {
			return
		}
	}
}

// componentsSerial is the closure-free hook-and-compress iteration; it
// converges to the same canonical labels (the component minimum) as the
// parallel path.
func componentsSerial(a compress.Arcs, comp []uint32) []uint32 {
	var run compress.Run
	for {
		changed := false
		for u := range uint32(len(comp)) {
			var adj []uint32
			if a.C == nil {
				adj, _ = a.View(u).Neighbors(u)
			} else {
				adj, _ = a.C.Span(&run, u, false)
			}
			cu := comp[u]
			for {
				for _, v := range adj {
					cv := comp[v]
					if cu == cv {
						continue
					}
					hi, lo := cu, cv
					if hi < lo {
						hi, lo = lo, hi
					}
					if comp[hi] == hi {
						comp[hi] = lo
						changed = true
					}
					cu = comp[u]
				}
				if run.Left() == 0 {
					break
				}
				adj, _ = run.Next(false)
			}
		}
		for u := range comp {
			c := comp[u]
			for comp[c] != c {
				c = comp[c]
			}
			comp[u] = c
		}
		if !changed {
			return comp
		}
	}
}

// Count returns the number of distinct components in a label array.
// Labels are canonical (comp[l] == l for every label l after the
// hook-and-compress iteration), so counting self-rooted entries is an
// O(n) time, O(1) space census.
func Count(comp []uint32) int {
	c := 0
	for i, l := range comp {
		if uint32(i) == l {
			c++
		}
	}
	return c
}

// Largest returns the label and size of the largest component (smallest
// label on ties). Labels are canonical vertex ids, so sizes accumulate
// into a dense O(n) slice instead of a map; the census and the max scan
// both run in parallel.
func Largest(workers int, comp []uint32) (label uint32, size int) {
	return LargestInto(workers, comp, nil)
}

// LargestInto is Largest with a caller-owned census buffer (see
// CensusInto). With workers <= 1 it allocates nothing.
func LargestInto(workers int, comp []uint32, sizes []int) (label uint32, size int) {
	return LargestOf(workers, CensusInto(workers, comp, sizes))
}

// LargestOf scans an existing census for the largest component
// (smallest label on ties) without redoing the count — the second half
// of Largest, for callers that also want the census itself.
func LargestOf(workers int, sizes []int) (label uint32, size int) {
	// Serial max scan below the parallel-census cutoff (and always at
	// workers <= 1): no reduce closures, so the pooled serving path
	// stays at zero allocations.
	if workers <= 1 || len(sizes) < censusParCutoff {
		for i, s := range sizes {
			if s > size {
				label, size = uint32(i), s
			}
		}
		return label, size
	}
	type best struct {
		label uint32
		size  int
	}
	b := par.Reduce(workers, len(sizes), best{},
		func(acc best, i int) best {
			// Strict > keeps the earliest (smallest) label on ties.
			if sizes[i] > acc.size {
				return best{uint32(i), sizes[i]}
			}
			return acc
		},
		func(a, b best) best {
			if b.size > a.size {
				return b
			}
			return a
		})
	return b.label, b.size
}

// censusParCutoff is the label-array length below which the parallel
// census costs more in per-worker count arrays than it saves.
const censusParCutoff = 1 << 14

// Census returns the size of every component indexed by canonical label;
// entries for ids that are not labels are zero. Large inputs are counted
// in parallel: each worker tallies one block of comp into a private
// dense count array (no atomics, no contention on giant-component
// labels) and the per-worker counts are reduced label-parallel. The
// private arrays cost O(workers · n) ints, the usual trade for
// contention-free counting at snapshot scale.
func Census(workers int, comp []uint32) []int {
	return CensusInto(workers, comp, nil)
}

// CensusInto is Census into a caller-owned count slice, reused when its
// capacity covers the label space. The serial path (small inputs or
// workers <= 1) then allocates nothing; the parallel path still builds
// its per-worker private count arrays.
func CensusInto(workers int, comp []uint32, sizes []int) []int {
	n := len(comp)
	if cap(sizes) < n {
		sizes = make([]int, n)
	} else {
		sizes = sizes[:n]
		for i := range sizes {
			sizes[i] = 0
		}
	}
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	// Each worker must have at least a cutoff-sized block to amortize
	// its private count array and the extra reduce pass; this also
	// bounds the O(workers · n) scratch to n/cutoff arrays.
	if maxUseful := n / censusParCutoff; workers > maxUseful {
		workers = maxUseful
	}
	if workers <= 1 {
		for _, l := range comp {
			sizes[l]++
		}
		return sizes
	}
	partial := make([][]int, workers)
	par.Workers(workers, func(id int) {
		cnt := make([]int, n)
		// Mirror par.ForBlock's static partitioning of comp.
		q, r := n/workers, n%workers
		lo := id*q + min(id, r)
		hi := lo + q
		if id < r {
			hi++
		}
		for _, l := range comp[lo:hi] {
			cnt[l]++
		}
		partial[id] = cnt
	})
	par.ForBlock(workers, n, func(lo, hi int) {
		for _, cnt := range partial {
			for i := lo; i < hi; i++ {
				sizes[i] += cnt[i]
			}
		}
	})
	return sizes
}

// SameComponent reports whether u and v share a component label.
func SameComponent(comp []uint32, u, v edge.ID) bool {
	return comp[u] == comp[v]
}
