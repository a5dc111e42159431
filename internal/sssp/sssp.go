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
// runs over a weight-materialized view (internal/wcsr) that computes and
// validates every weight once and pre-partitions each adjacency into a
// light prefix and heavy suffix, so the relaxation phases scan only
// their own arcs with no per-arc closure call or weight branch. A
// Scratch carries every reusable buffer — the distance array, the
// cyclic bucket ring, the dedup bitmaps, and the per-worker relaxation
// outputs — so steady-state repeated SSSP over one snapshot allocates
// nothing. The band loop is exported as Bands, driven through a Relaxer,
// so the shard fleet runs this same loop with its own relaxation phase.
package sssp

import (
	"math"
	"reflect"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/wcsr"
)

// Inf marks unreachable vertices in distance arrays.
const Inf = int64(math.MaxInt64)

// WeightFunc maps an arc's stored label to a non-negative weight that
// fits in uint32 (label-derived weights always do). Violations are
// reported by a panic from the single up-front materialization pass,
// never from inside a parallel relaxation phase.
type WeightFunc = wcsr.WeightFunc

// UnitWeights ignores labels: every arc costs 1 (BFS distances).
func UnitWeights(uint32) int64 { return 1 }

// LabelWeights uses the stored label directly as the weight.
func LabelWeights(ts uint32) int64 { return int64(ts) }

var labelWeightsPC = reflect.ValueOf(LabelWeights).Pointer()

// ViewKey returns the identity a weighted view built with wf is cached
// under — the function's code pointer, which costs no allocation — and
// the function to build it with: nil for LabelWeights, which lets wcsr
// read the weights straight from the labels rather than call out once
// per arc (1.2 ms of a 5.3 ms build at a million arcs).
func ViewKey(wf WeightFunc) (uintptr, WeightFunc) {
	pc := reflect.ValueOf(wf).Pointer()
	if pc == labelWeightsPC {
		return pc, nil
	}
	return pc, wf
}

// Options configures a delta-stepping run.
type Options struct {
	// Workers is the parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Delta is the bucket width; <= 0 picks wcsr.HeuristicDelta (mean
	// arc weight over 2*sqrt(mean degree), deterministically sampled).
	Delta int64
	// Weights maps time labels to arc weights; nil means LabelWeights.
	Weights WeightFunc
	// Scratch, when non-nil, supplies every reusable buffer including
	// the cached weighted view of the graph, making repeated runs over
	// one snapshot allocation-free. The returned distance slice is owned
	// by the Scratch and overwritten by its next run.
	Scratch *Scratch
}

// Run computes shortest path distances from src under opt. Distances
// match Dijkstra exactly; unreachable vertices hold Inf.
func Run(g *csr.Graph, src edge.ID, opt Options) []int64 {
	sc := opt.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	wf := opt.Weights
	if wf == nil {
		wf = LabelWeights
	}
	workers := opt.Workers
	wg := sc.prepare(workers, g, wf, opt.Delta)
	return sc.run(workers, wg, src)
}

// DeltaStepping computes shortest path distances from src in parallel
// using bucketed relaxation: vertices are settled in distance bands of
// width delta; "light" arcs (weight <= delta) are relaxed iteratively
// within a band, "heavy" arcs once per settled vertex. delta <= 0 picks
// the heuristic (wcsr.HeuristicDelta). Distances match Dijkstra exactly.
// It is Run with a throwaway Scratch; use Run with a warm Scratch for
// repeated sources over one snapshot.
func DeltaStepping(workers int, g *csr.Graph, src edge.ID, w WeightFunc, delta int64) []int64 {
	return Run(g, src, Options{Workers: workers, Weights: w, Delta: delta})
}
