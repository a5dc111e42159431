package shard

import (
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/sssp"
	"snapdyn/internal/wcsr"
)

// ssspState is the sharded delta-stepping arena: per-shard weighted
// views (cached across runs over one pinned view set), the band loop
// shared with the single-shard kernel, and the per-shard sub-batches of
// the owner scatter.
type ssspState struct {
	views   []wcsr.Graph
	viewFor []*csr.Graph // the graph each view was built from; nil = invalid
	viewWF  uintptr
	viewReq int64 // requested delta (cache key; <= 0 means heuristic)

	bands sssp.Bands
	dist  []int64
	sub   [][]uint32 // relaxation batch scattered by owner
}

// SSSP runs sharded delta-stepping from src over the pinned views,
// returning the scratch-owned distance array (sssp.Inf marks
// unreachable vertices, exactly like the single-shard kernel — CAS
// relaxation makes distances exact, so the arrays are identical).
//
// The band loop is the single-shard kernel's (sssp.Bands); only the
// relaxation phase differs. Each phase scatters the band's batch by
// vertex owner, every shard relaxes its sub-batch's light (or heavy)
// arcs over its own weighted view with CAS on the shared distance
// array, and the winners are gathered back into the ring at the phase
// barrier — the "tentative-distance relaxations exchanged per delta
// bucket" protocol. delta <= 0 derives one global delta from the
// per-shard weight distributions (wcsr.HeuristicDelta over all shard
// views), so all shards agree on band boundaries.
func (sc *Scratch) SSSP(views []*csr.Graph, src uint32, wf wcsr.WeightFunc, delta int64) []int64 {
	p := len(views)
	sp := &sc.sp
	sc.ensureViews(views, wf, delta)
	var maxW uint32
	for s := range sp.views {
		maxW = max(maxW, sp.views[s].MaxW)
	}
	sp.dist = sp.bands.Reset(p, views[0].N, maxW, sp.views[0].Delta)
	if len(sp.sub) != p {
		sp.sub = make([][]uint32, p)
	}
	sp.bands.Run(src, sp)
	return sp.dist
}

// ensureViews brings the cached per-shard weighted views up to date.
// Each view is keyed by its own shard's graph pointer: shards refresh
// independently, so only the shards whose snapshot moved are
// re-partitioned (one streaming pass each, in parallel). All shards
// share one delta so they agree on band boundaries; a heuristic
// request (delta <= 0) derives it from every shard's labels before any
// view is built, and a shard whose cached view was cut at another
// delta is re-partitioned too.
func (sc *Scratch) ensureViews(views []*csr.Graph, wf wcsr.WeightFunc, delta int64) {
	sp := &sc.sp
	p := len(views)
	wfp, wf := sssp.ViewKey(wf)
	if len(sp.views) != p {
		sp.views = make([]wcsr.Graph, p)
		sp.viewFor = make([]*csr.Graph, p)
	}
	if sp.viewWF != wfp {
		clear(sp.viewFor)
		sp.viewWF = wfp
	}
	stale := sp.viewReq != delta
	for s := range views {
		stale = stale || sp.viewFor[s] != views[s]
	}
	if !stale {
		return
	}
	sp.viewReq = delta
	if delta <= 0 {
		delta = wcsr.HeuristicDelta(wf, views[0].N, views...)
	}
	sc.rebuildViews(views, wf, delta)
}

// rebuildViews re-partitions, at delta, every shard view that is not
// already current. wcsr.Rebuild reports bad weights by panicking on its
// caller's goroutine — here a fleet worker, where an unhandled panic
// would kill the process — so it is ferried back to the coordinator;
// the failed shard's key stays cleared and the next run rebuilds it.
// The fan-out lives apart from ensureViews so that its escaping closure
// costs the warm-hit path no allocation.
func (sc *Scratch) rebuildViews(views []*csr.Graph, wf wcsr.WeightFunc, delta int64) {
	sp := &sc.sp
	var pan atomic.Pointer[panicValue]
	par.Workers(len(views), func(s int) {
		if sp.viewFor[s] == views[s] && sp.views[s].Delta == delta {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				pan.CompareAndSwap(nil, &panicValue{r})
			}
		}()
		sp.viewFor[s] = nil
		sp.views[s].Rebuild(1, views[s], wf, delta)
		sp.viewFor[s] = views[s]
	})
	if pv := pan.Load(); pv != nil {
		panic(pv.v)
	}
}

type panicValue struct{ v any }

// Phase is the fleet's sssp.Relaxer: it scatters the batch by owner and
// fans the relaxation out across shards. Shard s relaxes the light (or
// heavy) arcs of its owned batch members over its own weighted view,
// CAS-minimizing into the shared distance array; its winners land in
// out's bucket s for the band loop to drain. Within a shard the loop is
// serial — parallelism is the shard fan-out.
func (sp *ssspState) Phase(batch []uint32, light bool, out *frontier.Buckets) {
	p := len(sp.sub)
	for s := range sp.sub {
		sp.sub[s] = sp.sub[s][:0]
	}
	for _, u := range batch {
		sp.sub[int(u)%p] = append(sp.sub[int(u)%p], u)
	}
	par.Workers(p, func(s int) {
		wg := &sp.views[s]
		dist := sp.dist
		local := out.Take(s)
		for _, u := range sp.sub[s] {
			du := atomic.LoadInt64(&dist[u])
			lo, hi := wg.Span(u, light)
			for a := lo; a < hi; a++ {
				local = sssp.Relax(dist, wg.Adj[a], du+int64(wg.W[a]), local)
			}
		}
		out.Put(s, local)
	})
}
