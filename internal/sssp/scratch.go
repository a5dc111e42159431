package sssp

import (
	"math/bits"
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
	"snapdyn/internal/wcsr"
)

// maxRing caps the cyclic bucket ring size. Bands beyond the ring's
// window spill into an overflow list that is redistributed when the
// window catches up — only reachable when delta is tiny relative to the
// largest weight.
const maxRing = 1 << 12

// serialArcs is the phase size — in arcs, not vertices — below which a
// relaxation phase runs serially: the goroutine fan-out costs more than
// the relaxations. Measuring in arcs keeps a small batch containing one
// hub on the parallel path.
const serialArcs = 1024

// Scratch is the reusable arena for delta-stepping: the distance array,
// the cached weighted graph view, the cyclic bucket ring with its
// overflow list, the batch-dedup and settled bitmaps, the per-worker
// relaxation outputs, and the persistent executor closure set. After a
// warm-up run, repeated SSSP over the same snapshot (any source)
// allocates nothing. A Scratch must not be shared by concurrent runs,
// and the distance slice returned by a run is overwritten by the next.
//
// A run over a graph pointer the Scratch has not seen — every newly
// published snapshot — or with another delta re-partitions the cached
// weighted view first: one streaming O(m) pass into the arrays already
// held (4-5 ms per million arcs on one core, no allocation at
// Workers == 1, m/8 headroom for snapshots that grew), so a cold run
// costs about one and a half warm ones.
//
// The cached weighted view is keyed by the graph pointer, the requested
// delta, and the weight function's code pointer. Distinct named
// functions (LabelWeights vs UnitWeights) therefore never collide, but
// closures created from the same source location share a code pointer
// regardless of their captures — when reusing one Scratch across such
// closures, call Invalidate between them.
type Scratch struct {
	dist []int64

	prep      wcsr.Graph
	prepFor   *csr.Graph
	prepDelta int64
	prepWF    uintptr
	prepOK    bool

	inBatch   *frontier.Bitmap // dedups one batch; cleared per batch member
	inSettled *frontier.Bitmap // dedups a band's settled set; cleared per band
	out       *frontier.Buckets

	ring     [][]uint32 // cyclic bucket array, power-of-two length
	overflow []uint32
	settled  []uint32
	batch    []uint32
	offsets  []int64 // prefix-summed batch degrees (parallel phases)

	ex *exec
}

// NewScratch returns an empty arena; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Invalidate drops the cached weighted view, forcing the next run to
// rebuild it. Needed only when reusing one Scratch across same-origin
// closures with different captures (see the cache-key note above);
// distinct functions are told apart automatically.
func (sc *Scratch) Invalidate() { sc.prepOK = false }

// prepare returns the weighted view for (g, wf, delta), rebuilding the
// cached one (wcsr.Rebuild, into the arrays it already holds) when any
// of the three changed.
func (sc *Scratch) prepare(workers int, g *csr.Graph, wf WeightFunc, delta int64) *wcsr.Graph {
	key, build := ViewKey(wf)
	if !sc.prepOK || sc.prepFor != g || sc.prepWF != key || sc.prepDelta != delta {
		// Disarm the cache before Rebuild: a weight-validation panic
		// mid-rebuild leaves the view half-overwritten, and a caller
		// that recovers must not be handed it under the stale key.
		sc.prepOK = false
		sc.prep.Rebuild(workers, g, build, delta)
		sc.prepFor, sc.prepDelta, sc.prepWF, sc.prepOK = g, delta, key, true
	}
	return &sc.prep
}

// ensure sizes every buffer for a run over wg.
func (sc *Scratch) ensure(workers int, wg *wcsr.Graph) {
	n := wg.N
	if cap(sc.dist) < n {
		sc.dist = make([]int64, n)
	} else {
		sc.dist = sc.dist[:n]
	}
	if sc.inBatch == nil {
		sc.inBatch = frontier.NewBitmap(n)
		sc.inSettled = frontier.NewBitmap(n)
	} else if sc.inBatch.Len() != n {
		sc.inBatch.Grow(n)
		sc.inSettled.Grow(n)
	}
	if sc.out == nil {
		sc.out = frontier.NewBuckets(workers)
	} else {
		sc.out.Grow(workers)
	}
	if s := ringSize(wg.MaxW, wg.Delta); len(sc.ring) < s {
		ring := make([][]uint32, s)
		copy(ring, sc.ring)
		sc.ring = ring
	}
	levelRing(sc.ring, n)
}

// ringBudget bounds, in entries per vertex, the ring size levelRing may
// allocate up to.
const ringBudget = 16

// levelRing gives every slot of the (empty) ring the capacity of its
// largest one, rounded up to a power of two. Which bands are crowded
// depends on the source, so left alone each new source regrows a
// different handful of slots and the steady state keeps allocating long
// after the first run; levelled, a run allocates only when a band
// outgrows every band seen before. A ring whose levelled size would
// pass ringBudget entries per vertex — an explicit delta far below the
// weights makes thousands of sparse bands — keeps growing slot by slot.
func levelRing(ring [][]uint32, n int) {
	maxCap := 0
	for _, s := range ring {
		maxCap = max(maxCap, cap(s))
	}
	if maxCap == 0 {
		return
	}
	level := 1 << bits.Len(uint(maxCap-1))
	if level*len(ring) > ringBudget*n {
		return
	}
	for i, s := range ring {
		if cap(s) < level {
			ring[i] = make([]uint32, 0, level)
		}
	}
}

// ringSize returns the power-of-two ring length covering every band a
// relaxation from the current band can reach: light targets stay within
// one band, heavy targets within maxW/delta + 1, so maxW/delta + 2
// consecutive bands always suffice (capped at maxRing; the overflow
// list absorbs the pathological remainder).
func ringSize(maxW uint32, delta int64) int {
	span := int64(maxW)/delta + 2
	s := 4
	for int64(s) < span && s < maxRing {
		s <<= 1
	}
	return s
}

// exec returns the persistent executor, binding the phase bodies once
// per Scratch so the per-phase par calls reuse the same function values
// instead of allocating fresh closures.
func (sc *Scratch) exec() *exec {
	if sc.ex == nil {
		e := &exec{sc: sc}
		e.light = e.lightBody
		e.heavy = e.heavyBody
		sc.ex = e
	}
	return sc.ex
}

// run executes delta-stepping from src over the weighted view, writing
// into (and returning) the scratch-owned distance array.
func (sc *Scratch) run(workers int, wg *wcsr.Graph, src edge.ID) []int64 {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	sc.ensure(workers, wg)
	dist, delta := sc.dist, wg.Delta
	if workers == 1 {
		for i := range dist {
			dist[i] = Inf
		}
	} else {
		par.ForBlock(workers, len(dist), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dist[i] = Inf
			}
		})
	}
	dist[src] = 0

	e := sc.exec()
	e.wg, e.dist, e.workers = wg, dist, workers

	mask := len(sc.ring) - 1
	sc.overflow = sc.overflow[:0]
	sc.ring[0] = append(sc.ring[0][:0], src)
	queued := 1

	for cur := int64(0); queued > 0 || len(sc.overflow) > 0; {
		if queued == 0 {
			// The ring is drained but overflow entries remain: jump the
			// window forward to their earliest band and re-add them.
			cur, queued = sc.redistribute(cur, mask, delta)
			continue
		}
		if len(sc.overflow) > 0 {
			// Merge overflow entries whose band has entered the window
			// before scanning: the scan below may advance cur up to
			// span-1 bands, and a band that lives only in the overflow
			// list must be re-ringed before cur can pass it. Ring
			// entries never need this — an entry is always placed with
			// a base the scan has not passed, so its slot is reached at
			// its true band.
			queued += sc.sweepOverflow(cur, mask, delta)
		}
		for len(sc.ring[int(cur)&mask]) == 0 {
			cur++
		}
		slot := &sc.ring[int(cur)&mask]

		// Light fixpoint: relax the band's light arcs until no vertex
		// re-enters it. A vertex improved within its own band re-enters
		// the slot and is re-relaxed with the smaller distance.
		settled := sc.settled[:0]
		for len(*slot) > 0 {
			raw := *slot
			batch := sc.batch[:0]
			for _, v := range raw {
				d := dist[v]
				if d == Inf || d/delta != cur {
					continue // stale: improved into another band
				}
				if sc.inBatch.Set(v) {
					batch = append(batch, v)
				}
			}
			queued -= len(raw)
			*slot = raw[:0]
			for _, v := range batch {
				sc.inBatch.Clear(v)
				if sc.inSettled.Set(v) {
					settled = append(settled, v)
				}
			}
			sc.batch = batch
			if len(batch) == 0 {
				continue
			}
			e.batch = batch
			e.runPhase(true)
			queued += sc.drain(cur, mask, delta)
		}

		// Heavy pass: once per vertex settled in this band, with its
		// final distance. Heavy targets always land in strictly later
		// bands, so the fixpoint cannot reopen.
		if len(settled) > 0 {
			e.batch = settled
			e.runPhase(false)
			queued += sc.drain(cur, mask, delta)
			for _, v := range settled {
				sc.inSettled.Clear(v)
			}
		}
		sc.settled = settled
		cur++
	}

	return dist
}

// drain moves the per-worker relaxation outputs into the ring (or the
// overflow list for bands beyond the window base cur), returning the
// number of ring entries added.
func (sc *Scratch) drain(cur int64, mask int, delta int64) int {
	dist := sc.dist
	span := int64(mask + 1)
	added := 0
	for w := 0; w < sc.out.Width(); w++ {
		buf := sc.out.Buf(w)
		for _, v := range buf {
			b := dist[v] / delta
			if b-cur < span {
				sc.ring[int(b)&mask] = append(sc.ring[int(b)&mask], v)
				added++
			} else {
				sc.overflow = append(sc.overflow, v)
			}
		}
		sc.out.Put(w, buf[:0])
	}
	return added
}

// redistribute advances the window to the earliest live overflow band
// and moves every overflow entry now inside the window into the ring.
func (sc *Scratch) redistribute(cur int64, mask int, delta int64) (int64, int) {
	dist := sc.dist
	minBand, live := int64(-1), sc.overflow[:0]
	for _, v := range sc.overflow {
		b := dist[v] / delta
		if b < cur {
			continue // settled in an earlier band: stale duplicate
		}
		if minBand < 0 || b < minBand {
			minBand = b
		}
		live = append(live, v)
	}
	sc.overflow = live
	if minBand < 0 {
		return cur, 0
	}
	return minBand, sc.sweepOverflow(minBand, mask, delta)
}

// sweepOverflow moves every overflow entry whose band lies in the
// window [cur, cur+span) into the ring, drops entries whose distance
// improved into an already-settled band (stale duplicates), keeps the
// rest, and returns the number of ring entries added.
func (sc *Scratch) sweepOverflow(cur int64, mask int, delta int64) int {
	dist := sc.dist
	span := int64(mask + 1)
	added, keep := 0, sc.overflow[:0]
	for _, v := range sc.overflow {
		b := dist[v] / delta
		if b < cur {
			continue
		}
		if b-cur < span {
			sc.ring[int(b)&mask] = append(sc.ring[int(b)&mask], v)
			added++
		} else {
			keep = append(keep, v)
		}
	}
	sc.overflow = keep
	return added
}

// exec is the per-Scratch kernel executor: persistent phase bodies over
// mutable per-phase fields, so phases hand par.ForBlock the same
// function values every time and the steady state allocates no closures.
type exec struct {
	sc      *Scratch
	wg      *wcsr.Graph
	dist    []int64
	workers int
	batch   []uint32

	offsets   []int64 // prefix-summed phase degrees, one entry per batch vertex
	totalWork int64   // arcs in the current phase

	light func(lo, hi int)
	heavy func(lo, hi int)
}

// runPhase relaxes the batch's light or heavy arcs. The parallel path
// partitions the phase's work by *arcs* — a prefix sum over the batch's
// light (or heavy) degrees lets each worker claim an equal slice of
// arcs, exactly as the traversal engine partitions a frontier — so one
// hub vertex in a batch cannot serialize the phase. Small phases (and
// single-worker runs) take the serial path: no goroutine fan-out, no
// atomics.
func (e *exec) runPhase(light bool) {
	if e.workers == 1 {
		e.serialPhase(light)
		return
	}
	wg := e.wg
	offsets := e.sc.offsets[:0]
	if light {
		for _, u := range e.batch {
			offsets = append(offsets, wg.LightEnd[u]-wg.Offsets[u])
		}
	} else {
		for _, u := range e.batch {
			offsets = append(offsets, wg.Offsets[u+1]-wg.LightEnd[u])
		}
	}
	offsets = append(offsets, 0)
	e.sc.offsets = offsets
	e.offsets = offsets
	e.totalWork = psort.ExclusiveScan(e.workers, offsets)
	if e.totalWork == 0 {
		return
	}
	// par.BlockIndex inverts ForBlock's partitioning only when ForBlock
	// doesn't clamp the worker count, hence the totalWork >= workers
	// requirement on the parallel path.
	if e.totalWork < serialArcs || e.totalWork < int64(e.workers) {
		e.serialPhase(light)
		return
	}
	body := e.heavy
	if light {
		body = e.light
	}
	par.ForBlock(e.workers, int(e.totalWork), body)
}

// serialPhase is the single-owner relaxation loop: plain loads and
// stores, improvements appended to worker 0's bucket.
func (e *exec) serialPhase(light bool) {
	wg, dist := e.wg, e.dist
	local := e.sc.out.Take(0)
	for _, u := range e.batch {
		du := dist[u]
		var lo, hi int64
		if light {
			lo, hi = wg.Offsets[u], wg.LightEnd[u]
		} else {
			lo, hi = wg.LightEnd[u], wg.Offsets[u+1]
		}
		for p := lo; p < hi; p++ {
			v := wg.Adj[p]
			if nd := du + int64(wg.W[p]); nd < dist[v] {
				dist[v] = nd
				local = append(local, v)
			}
		}
	}
	e.sc.out.Put(0, local)
}

// lightBody is the parallel light-arc relaxation: lock-free CAS
// relaxation over the worker's arc slice [lo, hi) of the batch's
// concatenated light prefixes. A vertex whose prefix straddles a block
// boundary is relaxed by both neighbors, each over its own arc
// sub-range.
func (e *exec) lightBody(lo, hi int) {
	wg, dist, offsets, batch := e.wg, e.dist, e.offsets, e.batch
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.sc.out.Take(w)
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := batch[vi]
		abase := wg.Offsets[u]
		base := abase + (pos - offsets[vi])
		end := abase + (offsets[vi+1] - offsets[vi])
		if stop := abase + (int64(hi) - offsets[vi]); stop < end {
			end = stop
		}
		du := atomic.LoadInt64(&dist[u])
		for p := base; p < end; p++ {
			local = relax(dist, wg.Adj[p], du+int64(wg.W[p]), local)
		}
		pos = end - abase + offsets[vi]
	}
	e.sc.out.Put(w, local)
}

// heavyBody is the parallel heavy-arc relaxation over the batch's
// concatenated heavy suffixes, partitioned like lightBody.
func (e *exec) heavyBody(lo, hi int) {
	wg, dist, offsets, batch := e.wg, e.dist, e.offsets, e.batch
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.sc.out.Take(w)
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := batch[vi]
		abase := wg.LightEnd[u]
		base := abase + (pos - offsets[vi])
		end := abase + (offsets[vi+1] - offsets[vi])
		if stop := abase + (int64(hi) - offsets[vi]); stop < end {
			end = stop
		}
		du := atomic.LoadInt64(&dist[u])
		for p := base; p < end; p++ {
			local = relax(dist, wg.Adj[p], du+int64(wg.W[p]), local)
		}
		pos = end - abase + offsets[vi]
	}
	e.sc.out.Put(w, local)
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
