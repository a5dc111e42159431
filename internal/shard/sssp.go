package shard

import (
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/sssp"
)

// ssspState is the sharded delta-stepping arena: the delta chosen for
// the pinned view set, the band loop shared with the single-shard
// kernel, and the per-shard sub-batches of the owner scatter. It holds
// no per-arc state: shards relax their own snapshots' arcs in place.
type ssspState struct {
	deltas sssp.DeltaCache
	bands  sssp.Bands
	views  []*csr.Graph    // the pinned view set of the current run
	wf     sssp.WeightFunc // nil: the label is the weight
	dist   []int64
	sub    [][]uint32 // relaxation batch scattered by owner
	out    *frontier.Buckets
	bad    atomic.Bool
	body   func(s int) // relaxShard, bound once
}

// SSSP runs sharded delta-stepping from src over the pinned views,
// returning the scratch-owned distance array (sssp.Inf marks
// unreachable vertices, exactly like the single-shard kernel — CAS
// relaxation makes distances exact, so the arrays are identical).
//
// The band loop is the single-shard kernel's (sssp.Bands); only the
// relaxation phase differs. Each phase scatters the band's batch by
// vertex owner, every shard relaxes its sub-batch's arcs straight from
// its own snapshot with CAS on the shared distance array, and the
// winners are gathered back into the ring at the phase barrier — the
// "tentative-distance relaxations exchanged per delta bucket" protocol.
// delta <= 0 derives one global delta from every shard's labels
// (sssp.HeuristicDelta over all views, cached per view set), so all
// shards agree on band boundaries. A weight out of range panics on the
// caller's goroutine, never inside a shard worker.
func (sc *Scratch) SSSP(views []*csr.Graph, src uint32, wf sssp.WeightFunc, delta int64) []int64 {
	p := len(views)
	sp := &sc.sp
	sp.wf = sssp.Custom(wf)
	delta, maxW := sp.deltas.Choose(sp.wf, delta, views[0].N, views...)
	sp.dist = sp.bands.Reset(p, views[0].N, maxW, delta)
	sp.views = append(sp.views[:0], views...)
	if len(sp.sub) != p {
		sp.sub = make([][]uint32, p)
	}
	sp.bands.Run(src, sp)
	return sp.dist
}

// Phase is the fleet's sssp.Relaxer: it scatters the batch by owner and
// fans the relaxation out across shards. Shard s relaxes every arc of
// its owned batch members from its own snapshot, CAS-minimizing into
// the shared distance array; its winners land in out's bucket s for the
// band loop to drain. Within a shard the loop is serial — parallelism
// is the shard fan-out.
func (sp *ssspState) Phase(batch []uint32, out *frontier.Buckets) {
	p := len(sp.sub)
	for s := range sp.sub {
		sp.sub[s] = sp.sub[s][:0]
	}
	for _, u := range batch {
		sp.sub[int(u)%p] = append(sp.sub[int(u)%p], u)
	}
	if sp.body == nil {
		sp.body = sp.relaxShard
	}
	sp.out = out
	par.Workers(p, sp.body)
	if sp.bad.Load() {
		sp.bad.Store(false)
		sssp.BadWeight(sp.wf, sp.views...)
	}
}

// relaxShard is shard s's share of a phase: every arc of its owned
// batch members, relaxed from its own snapshot into bucket s.
func (sp *ssspState) relaxShard(s int) {
	g, dist := sp.views[s], sp.dist
	local := sp.out.Take(s)
	var bad, b bool
	for _, u := range sp.sub[s] {
		local, b = sssp.RelaxSpan(g, sp.wf, g.Offsets[u], g.Offsets[u+1], atomic.LoadInt64(&dist[u]), dist, local)
		bad = bad || b
	}
	sp.out.Put(s, local)
	if bad {
		sp.bad.Store(true)
	}
}
