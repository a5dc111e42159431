package shard

import (
	"snapdyn/internal/csr"
	"snapdyn/internal/frontier"
	"snapdyn/internal/sssp"
)

// ssspState is the sharded delta-stepping arena: the delta chosen for
// the pinned view set and the band loop shared with the single-shard
// kernel. It holds no per-arc state: each batch member's arcs are
// relaxed in place from its owner shard's snapshot.
type ssspState struct {
	deltas sssp.DeltaCache
	bands  sssp.Bands
	views  []*csr.Graph    // the pinned view set of the current run
	wf     sssp.WeightFunc // nil: the label is the weight
	dist   []int64
}

// SSSP runs sharded delta-stepping from src over the pinned views,
// returning the scratch-owned distance array (sssp.Inf marks
// unreachable vertices, exactly like the single-shard kernel: both
// settle exact distances, so the arrays are identical).
//
// The band loop is the single-shard kernel's (sssp.Bands); only the
// relaxation phase differs: each batch member's arcs come from its
// owner shard's snapshot. The run is serial, like the single store's
// pooled queries at Workers = 1; a served fleet's parallelism is its
// executor's admission slots. delta <= 0 derives one global delta from
// every shard's labels (sssp.HeuristicDelta over all views, cached per
// view set). A weight out of range panics on the caller's goroutine.
func (sc *Scratch) SSSP(views []*csr.Graph, src uint32, wf sssp.WeightFunc, delta int64) []int64 {
	sp := &sc.sp
	sp.wf = sssp.Custom(wf)
	delta, maxW := sp.deltas.Choose(sp.wf, delta, views[0].N, views...)
	sp.dist = sp.bands.Reset(1, views[0].N, maxW, delta)
	sp.views = append(sp.views[:0], views...)
	sp.bands.Run(src, sp)
	return sp.dist
}

// Phase is the fleet's sssp.Relaxer: it relaxes every arc of each batch
// member u from shard u % P's snapshot through sssp.RelaxOwned, and
// leaves the winners in out's bucket 0 for the band loop to drain.
func (sp *ssspState) Phase(batch []uint32, out *frontier.Buckets) {
	views, dist, p := sp.views, sp.dist, uint32(len(sp.views))
	local := out.Take(0)
	var bad bool
	for _, u := range batch {
		g := views[u%p]
		var b bool
		local, b = sssp.RelaxOwned(g, sp.wf, g.Offsets[u], g.Offsets[u+1], dist[u], dist, local)
		bad = bad || b
	}
	out.Put(0, local)
	if bad {
		sssp.BadWeight(sp.wf, views...)
	}
}
