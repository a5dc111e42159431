// Package sssp implements single-source shortest paths for weighted
// graphs — the problem the paper flags as future work ("the problem of
// single-source shortest paths for arbitrarily weighted graphs is
// challenging to parallelize efficiently, and is even harder in a
// dynamic setting") — using the parallel delta-stepping algorithm of the
// authors' companion ALENEX'07 study (paper reference [19]), with a
// sequential Dijkstra baseline for validation.
//
// Weights are derived from the arc's uint32 payload via a WeightFunc, so
// time labels can double as weights or be mapped arbitrarily. The kernel
// relaxes the pinned snapshot's arcs in place: a band's vertices relax
// every arc they have, reading the weight straight from the label
// (LabelWeights) or through one call per relaxed arc (any other
// WeightFunc), as the GAP Benchmark Suite's delta-stepping does. There
// is no weighted copy of the arcs and no light/heavy pre-partition, so
// a newly published snapshot costs a warm Scratch nothing but the
// delta heuristic's fixed-size sample. Bands hands a dense batch to its
// phase in vertex id order, so the arcs are read front to back. A phase
// that owns the distance array (one worker, or a small phase) relaxes
// through RelaxOwned: plain stores and no branch per arc; a parallel
// phase CAS-relaxes through RelaxSpan. A Scratch carries every reusable
// buffer — the distance array, the cyclic bucket ring, the dedup bitmap,
// and the per-worker relaxation outputs, all O(n) — so steady-state
// repeated SSSP allocates nothing. The band loop is exported as Bands,
// driven through a Relaxer, so the shard fleet runs this same loop with
// its own relaxation phase: RelaxOwned over each member's owner shard.
package sssp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
)

// Inf marks unreachable vertices in distance arrays.
const Inf = int64(math.MaxInt64)

// WeightFunc maps an arc's stored label to a non-negative weight that
// fits in uint32 (label-derived weights always do). A weight outside
// [0, MaxUint32] on a relaxed arc makes the run panic on its caller's
// goroutine once the phase that met it has joined its workers.
type WeightFunc func(ts uint32) int64

// UnitWeights ignores labels: every arc costs 1 (BFS distances).
func UnitWeights(uint32) int64 { return 1 }

// LabelWeights uses the stored label directly as the weight.
func LabelWeights(ts uint32) int64 { return int64(ts) }

var labelWeightsPC = reflect.ValueOf(LabelWeights).Pointer()

// Custom returns the function a relaxer must call per arc: nil when wf
// is nil or LabelWeights, whose weight the relaxer reads straight from
// the label, and wf itself otherwise.
func Custom(wf WeightFunc) WeightFunc {
	if wf == nil || reflect.ValueOf(wf).Pointer() == labelWeightsPC {
		return nil
	}
	return wf
}

// RelaxSpan CAS-relaxes arcs [lo, hi) of g out of a vertex at distance
// du, with weights from wf (nil: the label is the weight), and appends
// every target it improved to local. It reports whether a weight fell
// outside [0, MaxUint32]; the caller must then call BadWeight once its
// workers have joined. It is the arc loop of a phase whose workers
// share the distance array; a phase that owns it calls RelaxOwned.
func RelaxSpan(g *csr.Graph, wf WeightFunc, lo, hi, du int64, dist []int64, local []uint32) ([]uint32, bool) {
	adj, ts := g.Adj, g.TS
	if wf == nil {
		for p := lo; p < hi; p++ {
			local = relax(dist, adj[p], du+int64(ts[p]), local)
		}
		return local, false
	}
	var bad uint64
	for p := lo; p < hi; p++ {
		w := wf(ts[p])
		bad |= uint64(w) >> 32
		local = relax(dist, adj[p], du+w, local)
	}
	return local, bad != 0
}

// RelaxOwned is RelaxSpan for a phase that owns dist: no other
// goroutine reads or writes it until the phase ends. It uses plain
// loads and stores and no data-dependent branch: every arc stores
// min(nd, dist[v]) and writes its target into capacity reserved for
// the span, and the write is kept only when the sign of nd-dist[v]
// says the arc won. A target improved twice is appended twice. Bad
// weights are reported as RelaxSpan reports them.
func RelaxOwned(g *csr.Graph, wf WeightFunc, lo, hi, du int64, dist []int64, local []uint32) ([]uint32, bool) {
	adj, ts := g.Adj[lo:hi], g.TS[lo:hi]
	ts = ts[:len(adj)]
	k := len(local)
	local = slices.Grow(local, len(adj))
	buf := local[:k+len(adj)]
	if wf == nil {
		for i, v := range adj {
			nd, old := du+int64(ts[i]), dist[v]
			dist[v] = min(nd, old)
			buf[k] = v
			k += int(uint64(nd-old) >> 63)
		}
		return buf[:k], false
	}
	var bad uint64
	for i, v := range adj {
		w := wf(ts[i])
		bad |= uint64(w) >> 32
		nd, old := du+w, dist[v]
		dist[v] = min(nd, old)
		buf[k] = v
		k += int(uint64(nd-old) >> 63)
	}
	return buf[:k], bad != 0
}

// relax attempts dist[v] = min(dist[v], nd) with a CAS loop; the winning
// worker records the improvement in its local bucket.
func relax(dist []int64, v uint32, nd int64, local []uint32) []uint32 {
	for {
		cur := atomic.LoadInt64(&dist[v])
		if nd >= cur {
			return local
		}
		if atomic.CompareAndSwapInt64(&dist[v], cur, nd) {
			return append(local, v)
		}
	}
}

// BadWeight panics with the first arc of gs whose weight under wf lies
// outside [0, MaxUint32]. Relaxers call it on the run's own goroutine
// after a phase reported a bad weight, never inside a worker, so the
// caller can recover.
func BadWeight(wf WeightFunc, gs ...*csr.Graph) {
	for _, g := range gs {
		for _, ts := range g.TS {
			if w := wf(ts); uint64(w)>>32 != 0 {
				panic(fmt.Sprintf("sssp: weight %d for label %d outside [0, MaxUint32]", w, ts))
			}
		}
	}
	panic("sssp: weight function returned a weight outside [0, MaxUint32]")
}

// Options configures a delta-stepping run.
type Options struct {
	// Workers is the parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Delta is the bucket width; <= 0 picks HeuristicDelta (mean arc
	// weight over 2*sqrt(mean degree), deterministically sampled).
	Delta int64
	// Weights maps time labels to arc weights; nil means LabelWeights.
	Weights WeightFunc
	// Scratch, when non-nil, supplies every reusable buffer and the
	// delta chosen for the graph, making repeated runs allocation-free.
	// The returned distance slice is owned by the Scratch and
	// overwritten by its next run.
	Scratch *Scratch
}

// Run computes shortest path distances from src under opt. Distances
// match Dijkstra exactly; unreachable vertices hold Inf.
func Run(g *csr.Graph, src edge.ID, opt Options) []int64 {
	sc := opt.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	return sc.run(opt.Workers, g, Custom(opt.Weights), opt.Delta, src)
}

// DeltaStepping computes shortest path distances from src in parallel
// using bucketed relaxation: vertices are settled in distance bands of
// width delta, each band relaxing its vertices' arcs until no vertex
// re-enters it. delta <= 0 picks HeuristicDelta. Distances match
// Dijkstra exactly. It is Run with a throwaway Scratch; use Run with a
// warm Scratch for repeated sources.
func DeltaStepping(workers int, g *csr.Graph, src edge.ID, w WeightFunc, delta int64) []int64 {
	return Run(g, src, Options{Workers: workers, Weights: w, Delta: delta})
}
