package sssp

import (
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
	"snapdyn/internal/wcsr"
)

// serialArcs is the phase size — in arcs, not vertices — below which a
// relaxation phase runs serially: the goroutine fan-out costs more than
// the relaxations. Measuring in arcs keeps a small batch containing one
// hub on the parallel path.
const serialArcs = 1024

// Scratch is the reusable arena for delta-stepping: the cached weighted
// graph view, the band loop's state (distance array, bucket ring,
// bitmaps and per-worker relaxation outputs), and the persistent
// executor closure set. After a warm-up run, repeated SSSP over the same
// snapshot (any source) allocates nothing. A Scratch must not be shared
// by concurrent runs, and the distance slice returned by a run is
// overwritten by the next.
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
	prep      wcsr.Graph
	prepFor   *csr.Graph
	prepDelta int64
	prepWF    uintptr
	prepOK    bool

	bands Bands
	ex    *exec
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

// exec returns the persistent executor, binding the phase body once per
// Scratch so the per-phase par calls reuse the same function value
// instead of allocating a fresh closure.
func (sc *Scratch) exec() *exec {
	if sc.ex == nil {
		e := &exec{}
		e.body = e.parallelPhase
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
	dist := sc.bands.Reset(workers, wg.N, wg.MaxW, wg.Delta)
	e := sc.exec()
	e.wg, e.dist, e.workers = wg, dist, workers
	sc.bands.Run(src, e)
	return dist
}

// exec is the single-snapshot kernel's Relaxer: a persistent phase body
// over mutable per-phase fields, so phases hand par.ForBlock the same
// function value every time and the steady state allocates no closures.
type exec struct {
	wg      *wcsr.Graph
	dist    []int64
	workers int
	batch   []uint32
	light   bool
	out     *frontier.Buckets

	offsets   []int64 // prefix-summed phase degrees, one entry per batch vertex
	totalWork int64   // arcs in the current phase

	body func(lo, hi int)
}

// Phase relaxes the batch's light or heavy arcs into out. The parallel
// path partitions the phase's work by *arcs* — a prefix sum over the
// batch's light (or heavy) degrees lets each worker claim an equal slice
// of arcs, exactly as the traversal engine partitions a frontier — so
// one hub vertex in a batch cannot serialize the phase. Small phases (and
// single-worker runs) take the serial path: no goroutine fan-out, no
// atomics.
func (e *exec) Phase(batch []uint32, light bool, out *frontier.Buckets) {
	e.batch, e.light, e.out = batch, light, out
	if e.workers == 1 {
		e.serialPhase()
		return
	}
	offsets := e.offsets[:0]
	for _, u := range batch {
		lo, hi := e.wg.Span(u, light)
		offsets = append(offsets, hi-lo)
	}
	offsets = append(offsets, 0)
	e.offsets = offsets
	e.totalWork = psort.ExclusiveScan(e.workers, offsets)
	if e.totalWork == 0 {
		return
	}
	// par.BlockIndex inverts ForBlock's partitioning only when ForBlock
	// doesn't clamp the worker count, hence the totalWork >= workers
	// requirement on the parallel path.
	if e.totalWork < serialArcs || e.totalWork < int64(e.workers) {
		e.serialPhase()
		return
	}
	par.ForBlock(e.workers, int(e.totalWork), e.body)
}

// serialPhase is the single-owner relaxation loop: plain loads and
// stores, improvements appended to worker 0's bucket.
func (e *exec) serialPhase() {
	wg, dist := e.wg, e.dist
	local := e.out.Take(0)
	for _, u := range e.batch {
		du := dist[u]
		lo, hi := wg.Span(u, e.light)
		for p := lo; p < hi; p++ {
			v := wg.Adj[p]
			if nd := du + int64(wg.W[p]); nd < dist[v] {
				dist[v] = nd
				local = append(local, v)
			}
		}
	}
	e.out.Put(0, local)
}

// parallelPhase is one worker's share of a parallel phase: lock-free CAS
// relaxation over its arc slice [lo, hi) of the batch's concatenated
// light prefixes (or heavy suffixes). A vertex whose span straddles a
// block boundary is relaxed by both neighbors, each over its own arc
// sub-range.
func (e *exec) parallelPhase(lo, hi int) {
	wg, dist, offsets, batch := e.wg, e.dist, e.offsets, e.batch
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.out.Take(w)
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := batch[vi]
		abase, _ := wg.Span(u, e.light)
		base := abase + (pos - offsets[vi])
		end := abase + (offsets[vi+1] - offsets[vi])
		if stop := abase + (int64(hi) - offsets[vi]); stop < end {
			end = stop
		}
		du := atomic.LoadInt64(&dist[u])
		for p := base; p < end; p++ {
			local = Relax(dist, wg.Adj[p], du+int64(wg.W[p]), local)
		}
		pos = end - abase + offsets[vi]
	}
	e.out.Put(w, local)
}

// Relax attempts dist[v] = min(dist[v], nd) with a CAS loop; the winning
// worker records the improvement in its local bucket. It is the one
// concurrent relaxation every Relaxer's parallel phases share.
func Relax(dist []int64, v uint32, nd int64, local []uint32) []uint32 {
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
