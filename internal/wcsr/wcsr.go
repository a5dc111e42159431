// Package wcsr provides a weight-materialized view of a CSR snapshot for
// the delta-stepping SSSP kernel: every arc's weight is computed once
// from its time label at build time (instead of a WeightFunc call per arc
// per relaxation phase), validated once up front, and each vertex's
// adjacency is split into a light prefix (weight <= delta) and a heavy
// suffix, so the light fixpoint and the heavy pass each scan only their
// own arcs. The split halves the inner-loop arc traffic and removes the
// closure call and the negative-weight branch from the hot loop.
//
// Building a view is one streaming pass over the arcs — delta-stepping
// needs a partition, not an order — so a freshly published snapshot
// costs a pooled SSSP scratch about as much as one warm kernel run.
package wcsr

import (
	"fmt"
	"math"
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
)

// WeightFunc maps an arc's stored time label to its weight. Results must
// be non-negative and fit in uint32 (label-derived weights always do);
// Build validates every arc once and panics otherwise, so the relaxation
// phases can trust the materialized array unconditionally. A nil
// WeightFunc means the label is the weight: the build pass then reads it
// straight from the snapshot instead of calling out once per arc.
type WeightFunc func(ts uint32) int64

// Graph is a weight-materialized, light/heavy-partitioned CSR view.
// Vertex u's arcs occupy [Offsets[u], Offsets[u+1]) of Adj and W as in
// csr.Graph, partitioned at Delta: arcs with W <= Delta form the prefix
// [Offsets[u], LightEnd[u]) and heavy arcs the suffix
// [LightEnd[u], Offsets[u+1]). Within a side arcs are unordered as far
// as the kernel is concerned; the layout is nevertheless a pure function
// of the source span and Delta (light arcs in source order, heavy arcs
// in reverse source order), identical for every worker count.
type Graph struct {
	N        int
	Offsets  []int64  // length N+1, shared with the source CSR (immutable)
	LightEnd []int64  // length N: first heavy arc position per vertex
	Adj      []uint32 // partitioned adjacency
	W        []uint32 // weights, parallel to Adj
	Delta    int64    // partition width (>= 1)
	MaxW     uint32   // largest arc weight
}

// NumEdges returns the number of stored arcs.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adj)) }

// Degree returns the out-degree of u.
func (g *Graph) Degree(u edge.ID) int64 { return g.Offsets[u+1] - g.Offsets[u] }

// Span returns the arc range of u's light prefix, or of its heavy
// suffix when light is false.
func (g *Graph) Span(u edge.ID, light bool) (lo, hi int64) {
	if light {
		return g.Offsets[u], g.LightEnd[u]
	}
	return g.LightEnd[u], g.Offsets[u+1]
}

// Build materializes weights for g under wf and partitions each
// adjacency at delta. delta <= 0 picks HeuristicDelta. Panics if wf
// produces a weight outside [0, MaxUint32].
func Build(workers int, g *csr.Graph, wf WeightFunc, delta int64) *Graph {
	wg := &Graph{}
	wg.Rebuild(workers, g, wf, delta)
	return wg
}

// Rebuild is Build into an existing view, reusing its arrays when large
// enough — the scratch-reuse path for SSSP over a new snapshot or with a
// new delta. It is one streaming O(m) pass (about 7 ms per million arcs
// on one core); the arc arrays are allocated with m/8 headroom so a
// snapshot that grew by a few arcs reuses them.
func (wg *Graph) Rebuild(workers int, g *csr.Graph, wf WeightFunc, delta int64) {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	if delta <= 0 {
		delta = HeuristicDelta(wf, g.N, g)
	}
	m := len(g.Adj)
	wg.N = g.N
	wg.Offsets = g.Offsets
	wg.Delta = delta
	if cap(wg.LightEnd) < g.N {
		wg.LightEnd = make([]int64, g.N)
	} else {
		wg.LightEnd = wg.LightEnd[:g.N]
	}
	if cap(wg.Adj) < m {
		wg.Adj = make([]uint32, m, m+m/8)
		wg.W = make([]uint32, m, m+m/8)
	} else {
		wg.Adj = wg.Adj[:m]
		wg.W = wg.W[:m]
	}

	var ok bool
	if workers == 1 {
		wg.MaxW, ok = wg.partition(g, wf, 0, g.N)
	} else {
		wg.MaxW, ok = wg.partitionParallel(workers, g, wf)
	}
	if !ok {
		// Report the first offending arc from the caller's goroutine — a
		// panic inside a par worker would crash the process with no
		// chance to recover.
		for _, ts := range g.TS {
			if w := wf(ts); w < 0 || w > math.MaxUint32 {
				panic(fmt.Sprintf("wcsr: weight %d for label %d outside [0, MaxUint32]", w, ts))
			}
		}
	}
}

// partitionParallel fans partition out over vertex chunks. It lives in
// its own function so the escaping closure state is not heap-allocated
// on the single-worker path, which must stay allocation-free.
func (wg *Graph) partitionParallel(workers int, g *csr.Graph, wf WeightFunc) (uint32, bool) {
	var maxW atomic.Uint32
	var bad atomic.Bool
	par.ForDynamic(workers, g.N, 256, func(vlo, vhi int) {
		localMax, ok := wg.partition(g, wf, vlo, vhi)
		if !ok {
			bad.Store(true)
		}
		for {
			cur := maxW.Load()
			if localMax <= cur || maxW.CompareAndSwap(cur, localMax) {
				break
			}
		}
	})
	return maxW.Load(), !bad.Load()
}

// partition is the fused build pass over vertices [vlo, vhi): each arc's
// weight is materialized and range-checked, the maximum tracked, and the
// arc written to the front of its vertex's span if light or to the back
// if heavy, so LightEnd falls out where the two cursors meet. The arc is
// stored at both cursors and only one of them advances, which keeps the
// loop free of a data-dependent branch (weights near delta would
// mispredict every other arc); the cursors never cross while arcs
// remain, so the spare store always lands on a slot still to be
// written. It reports the largest weight seen and whether every weight
// was in range.
func (wg *Graph) partition(g *csr.Graph, wf WeightFunc, vlo, vhi int) (uint32, bool) {
	offs, adj, ts := g.Offsets, g.Adj, g.TS
	oadj, ow, delta := wg.Adj, wg.W, wg.Delta
	var maxW uint32
	var outOfRange uint64 // nonzero once any weight is negative or > MaxUint32
	for u := vlo; u < vhi; u++ {
		lo, hi := offs[u], offs[u+1]
		l, h := lo, hi-1
		for p := lo; p < hi; p++ {
			w := int64(ts[p])
			if wf != nil {
				w = wf(ts[p])
			}
			outOfRange |= uint64(w) >> 32
			a, w32 := adj[p], uint32(w)
			oadj[l], ow[l] = a, w32
			oadj[h], ow[h] = a, w32
			heavy := int64(uint64(delta-int64(w32)) >> 63) // 1 iff w32 > delta
			l += 1 - heavy
			h -= heavy
			if w32 > maxW {
				maxW = w32
			}
		}
		wg.LightEnd[u] = l
	}
	return maxW, outOfRange == 0
}

// heuristicSample bounds the number of arcs HeuristicDelta inspects per
// graph.
const heuristicSample = 1 << 16

// HeuristicDelta returns the default bucket width for the arcs of gs —
// one snapshot, or the shard views of a fleet — over n vertices:
//
//	max(1, meanW / (2·sqrt(max(1, m/n))))
//
// The mean weight alone (the textbook starting point) is the slowest
// point of the sweep: bands that wide re-relax most light arcs several
// times. The Meyer–Sanders Θ(1/d) rule fixes that but over-shrinks on
// dense graphs, where the sharded engine then pays a phase barrier per
// near-empty band; damping the degree term with a square root sits on
// the flat part of the measured curve for both engines at mean degrees
// 4 to 64 (README "SSSP delta tuning" has the sweep).
//
// Each graph's weights are sampled from its time labels through wf at a
// fixed stride of max(1, m/2^16) starting at arc 0 and combined
// arc-weighted, so repeated runs over one snapshot (or one view set)
// pick the same delta. All index arithmetic is additive, so it cannot
// overflow regardless of the arc count.
func HeuristicDelta(wf WeightFunc, n int, gs ...*csr.Graph) int64 {
	var wsum float64
	var m int64
	for _, g := range gs {
		ts := g.TS
		if len(ts) == 0 {
			continue
		}
		stride := len(ts) / heuristicSample
		if stride < 1 {
			stride = 1
		}
		var sum, count int64
		for i := 0; i < len(ts); i += stride {
			if wf == nil {
				sum += int64(ts[i])
			} else {
				sum += wf(ts[i])
			}
			count++
		}
		wsum += float64(sum) / float64(count) * float64(len(ts))
		m += int64(len(ts))
	}
	if m == 0 {
		return 1
	}
	deg := math.Max(1, float64(m)/float64(n))
	d := wsum / float64(m) / (2 * math.Sqrt(deg))
	if d < 1 { // small weights, or the garbage a bad wf makes of the mean
		return 1
	}
	return int64(d)
}
