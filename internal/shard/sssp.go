package shard

import (
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/sssp"
	"snapdyn/internal/wcsr"
)

// maxRing caps the cyclic bucket ring, as in the single-shard kernel.
const maxRing = 1 << 12

// ssspState is the sharded delta-stepping arena: per-shard weighted
// views (cached across runs over one pinned view set), the shared
// distance array, the coordinator-owned bucket ring, and the
// scatter/gather buffers for the per-band relaxation exchange.
type ssspState struct {
	dist []int64

	views   []wcsr.Graph
	viewFor []*csr.Graph // the graph each view was built from; nil = invalid
	viewWF  uintptr
	viewReq int64 // requested delta (cache key; <= 0 means heuristic)

	sub [][]uint32 // relaxation batch scattered by owner
	out [][]uint32 // per-shard relaxation winners, gathered per phase

	ring      [][]uint32
	overflow  []uint32
	settled   []uint32
	batch     []uint32
	inBatch   *frontier.Bitmap
	inSettled *frontier.Bitmap
}

// SSSP runs sharded delta-stepping from src over the pinned views,
// returning the scratch-owned distance array (sssp.Inf marks
// unreachable vertices, exactly like the single-shard kernel — CAS
// relaxation makes distances exact, so the arrays are identical).
//
// The coordinator owns the bucket ring and runs the band loop; each
// relaxation phase scatters the band's batch by vertex owner, every
// shard relaxes its sub-batch's light (or heavy) arcs over its own
// weighted view with CAS on the shared distance array, and the
// winning improvements are gathered back into the ring at the phase
// barrier — the "tentative-distance relaxations exchanged per delta
// bucket" protocol. delta <= 0 derives one global delta from the
// per-shard weight distributions (wcsr.HeuristicDelta over all shard
// views), so all shards agree on band boundaries.
func (sc *Scratch) SSSP(views []*csr.Graph, src uint32, wf wcsr.WeightFunc, delta int64) []int64 {
	p := len(views)
	n := views[0].N
	sp := &sc.sp
	sc.ensureViews(views, wf, delta)
	d := sp.views[0].Delta
	var maxW uint32
	for s := range sp.views {
		if sp.views[s].MaxW > maxW {
			maxW = sp.views[s].MaxW
		}
	}
	sp.ensureRun(p, n, maxW, d)

	dist := sp.dist
	par.ForBlock(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dist[i] = sssp.Inf
		}
	})
	dist[src] = 0

	mask := len(sp.ring) - 1
	sp.overflow = sp.overflow[:0]
	sp.ring[0] = append(sp.ring[0][:0], src)
	queued := 1

	for cur := int64(0); queued > 0 || len(sp.overflow) > 0; {
		if queued == 0 {
			cur, queued = sp.redistribute(cur, mask, d)
			continue
		}
		if len(sp.overflow) > 0 {
			queued += sp.sweepOverflow(cur, mask, d)
		}
		for len(sp.ring[int(cur)&mask]) == 0 {
			cur++
		}
		slot := &sp.ring[int(cur)&mask]

		// Light fixpoint: relax the band's light arcs until no vertex
		// re-enters it, exactly as in the single-shard kernel.
		settled := sp.settled[:0]
		for len(*slot) > 0 {
			raw := *slot
			batch := sp.batch[:0]
			for _, v := range raw {
				dv := dist[v]
				if dv == sssp.Inf || dv/d != cur {
					continue // stale: improved into another band
				}
				if sp.inBatch.Set(v) {
					batch = append(batch, v)
				}
			}
			queued -= len(raw)
			*slot = raw[:0]
			for _, v := range batch {
				sp.inBatch.Clear(v)
				if sp.inSettled.Set(v) {
					settled = append(settled, v)
				}
			}
			sp.batch = batch
			if len(batch) == 0 {
				continue
			}
			sp.relaxPhase(p, batch, true)
			queued += sp.drain(cur, mask, d)
		}

		// Heavy pass: once per vertex settled in this band. Heavy
		// targets land in strictly later bands; the fixpoint cannot
		// reopen.
		if len(settled) > 0 {
			sp.relaxPhase(p, settled, false)
			queued += sp.drain(cur, mask, d)
			for _, v := range settled {
				sp.inSettled.Clear(v)
			}
		}
		sp.settled = settled
		cur++
	}
	return dist
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

// ensureRun sizes the per-run buffers.
func (sp *ssspState) ensureRun(p, n int, maxW uint32, delta int64) {
	if cap(sp.dist) < n {
		sp.dist = make([]int64, n)
	} else {
		sp.dist = sp.dist[:n]
	}
	if sp.inBatch == nil {
		sp.inBatch = frontier.NewBitmap(n)
		sp.inSettled = frontier.NewBitmap(n)
	} else if sp.inBatch.Len() != n {
		sp.inBatch.Grow(n)
		sp.inSettled.Grow(n)
	}
	if len(sp.sub) != p {
		sp.sub = make([][]uint32, p)
		sp.out = make([][]uint32, p)
	}
	if s := ringSize(maxW, delta); len(sp.ring) < s {
		ring := make([][]uint32, s)
		copy(ring, sp.ring)
		sp.ring = ring
	}
}

// ringSize mirrors the single-shard kernel: a power-of-two window
// covering every band one relaxation can reach, capped at maxRing.
func ringSize(maxW uint32, delta int64) int {
	span := int64(maxW)/delta + 2
	s := 4
	for int64(s) < span && s < maxRing {
		s <<= 1
	}
	return s
}

// relaxPhase scatters the batch by owner and fans the relaxation out
// across shards: shard s relaxes the light (or heavy) arcs of its
// owned batch members over its own weighted view, CAS-minimizing into
// the shared distance array; winners land in the shard's output
// bucket for the coordinator to drain. Within a shard the loop is
// serial — parallelism is the shard fan-out.
func (sp *ssspState) relaxPhase(p int, batch []uint32, light bool) {
	for s := range sp.sub {
		sp.sub[s] = sp.sub[s][:0]
	}
	for _, u := range batch {
		sp.sub[int(u)%p] = append(sp.sub[int(u)%p], u)
	}
	par.Workers(p, func(s int) {
		wg := &sp.views[s]
		dist := sp.dist
		local := sp.out[s][:0]
		for _, u := range sp.sub[s] {
			du := atomic.LoadInt64(&dist[u])
			var lo, hi int64
			if light {
				lo, hi = wg.Offsets[u], wg.LightEnd[u]
			} else {
				lo, hi = wg.LightEnd[u], wg.Offsets[u+1]
			}
			for a := lo; a < hi; a++ {
				v := wg.Adj[a]
				nd := du + int64(wg.W[a])
				for {
					cur := atomic.LoadInt64(&dist[v])
					if nd >= cur {
						break
					}
					if atomic.CompareAndSwapInt64(&dist[v], cur, nd) {
						local = append(local, v)
						break
					}
				}
			}
		}
		sp.out[s] = local
	})
}

// drain moves the per-shard relaxation winners into the ring (or the
// overflow list for bands beyond the window), returning the number of
// ring entries added.
func (sp *ssspState) drain(cur int64, mask int, delta int64) int {
	dist := sp.dist
	span := int64(mask + 1)
	added := 0
	for s := range sp.out {
		for _, v := range sp.out[s] {
			b := dist[v] / delta
			if b-cur < span {
				sp.ring[int(b)&mask] = append(sp.ring[int(b)&mask], v)
				added++
			} else {
				sp.overflow = append(sp.overflow, v)
			}
		}
		sp.out[s] = sp.out[s][:0]
	}
	return added
}

// redistribute advances the window to the earliest live overflow band
// and re-rings every entry now inside it.
func (sp *ssspState) redistribute(cur int64, mask int, delta int64) (int64, int) {
	dist := sp.dist
	minBand, live := int64(-1), sp.overflow[:0]
	for _, v := range sp.overflow {
		b := dist[v] / delta
		if b < cur {
			continue
		}
		if minBand < 0 || b < minBand {
			minBand = b
		}
		live = append(live, v)
	}
	sp.overflow = live
	if minBand < 0 {
		return cur, 0
	}
	return minBand, sp.sweepOverflow(minBand, mask, delta)
}

// sweepOverflow rings every overflow entry whose band entered the
// window, drops stale duplicates, and returns the entries added.
func (sp *ssspState) sweepOverflow(cur int64, mask int, delta int64) int {
	dist := sp.dist
	span := int64(mask + 1)
	added, keep := 0, sp.overflow[:0]
	for _, v := range sp.overflow {
		b := dist[v] / delta
		if b < cur {
			continue
		}
		if b-cur < span {
			sp.ring[int(b)&mask] = append(sp.ring[int(b)&mask], v)
			added++
		} else {
			keep = append(keep, v)
		}
	}
	sp.overflow = keep
	return added
}
