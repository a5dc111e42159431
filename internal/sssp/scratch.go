package sssp

import (
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// serialArcs is the phase size — in arcs, not vertices — below which a
// relaxation phase runs serially: the goroutine fan-out costs more than
// the relaxations. Measuring in arcs keeps a small batch containing one
// hub on the parallel path.
const serialArcs = 1024

// Scratch is the reusable arena for delta-stepping: the delta chosen
// for the last graph, the band loop's state (distance array, bucket
// ring, dedup bitmap and per-worker relaxation outputs), and the
// persistent executor closure set. Every buffer is O(n); the kernel
// reads weights from the snapshot's own arcs, so a run over a graph
// pointer the Scratch has not seen — every newly published snapshot —
// costs only the delta heuristic's fixed-size sample. After a warm-up
// run, repeated SSSP (any source, any snapshot of the same size)
// allocates nothing. A Scratch must not be shared by concurrent runs,
// and the distance slice returned by a run is overwritten by the next.
type Scratch struct {
	deltas DeltaCache
	bands  Bands
	ex     *exec
}

// NewScratch returns an empty arena; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Invalidate drops the cached delta, so the next run samples the graph
// again. The cache is keyed by graph and requested delta, not by weight
// function: call it when switching weight functions over one snapshot
// and the heuristic width should follow. Distances are exact either
// way.
func (sc *Scratch) Invalidate() { sc.deltas.Invalidate() }

// SizeBytes returns the bytes the scratch retains between runs: the
// band loop's buffers and the executor's phase offsets, all O(n).
func (sc *Scratch) SizeBytes() int64 {
	s := sc.bands.SizeBytes()
	if sc.ex != nil {
		s += 8 * int64(cap(sc.ex.offsets))
	}
	return s
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

// run executes delta-stepping from src over g with weights from wf
// (nil: the label), writing into (and returning) the scratch-owned
// distance array.
func (sc *Scratch) run(workers int, g *csr.Graph, wf WeightFunc, delta int64, src edge.ID) []int64 {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	delta, maxW := sc.deltas.Choose(wf, delta, g.N, g)
	dist := sc.bands.Reset(workers, g.N, maxW, delta)
	e := sc.exec()
	e.g, e.wf, e.dist, e.workers = g, wf, dist, workers
	sc.bands.Run(src, e)
	return dist
}

// exec is the single-snapshot kernel's Relaxer: a persistent phase body
// over mutable per-phase fields, so phases hand par.ForBlock the same
// function value every time and the steady state allocates no closures.
type exec struct {
	g       *csr.Graph
	wf      WeightFunc // nil: the label is the weight
	dist    []int64
	workers int
	batch   []uint32
	out     *frontier.Buckets

	offsets   []int64 // prefix-summed degrees, one entry per batch vertex
	totalWork int64   // arcs in the current phase
	bad       atomic.Bool

	body func(lo, hi int)
}

// Phase relaxes every arc of the batch into out. The parallel path
// partitions the phase's work by *arcs* — a prefix sum over the batch's
// degrees lets each worker claim an equal slice of arcs, exactly as the
// traversal engine partitions a frontier — so one hub vertex in a batch
// cannot serialize the phase. Small phases (and single-worker runs)
// take the serial path through RelaxOwned: no goroutine fan-out, no
// atomics, no branch per arc. A weight out
// of range panics here, after the workers have joined.
func (e *exec) Phase(batch []uint32, out *frontier.Buckets) {
	e.batch, e.out = batch, out
	if e.workers > 1 && e.fanOut() {
		par.ForBlock(e.workers, int(e.totalWork), e.body)
	} else {
		e.serialPhase()
	}
	if e.bad.Load() {
		e.bad.Store(false)
		BadWeight(e.wf, e.g)
	}
}

// fanOut prefix-sums the batch's degrees into e.offsets and reports
// whether the phase has enough arcs to be worth the fan-out.
func (e *exec) fanOut() bool {
	offs := e.g.Offsets
	offsets := e.offsets[:0]
	for _, u := range e.batch {
		offsets = append(offsets, offs[u+1]-offs[u])
	}
	offsets = append(offsets, 0)
	e.offsets = offsets
	e.totalWork = psort.ExclusiveScan(e.workers, offsets)
	// par.BlockIndex inverts ForBlock's partitioning only when ForBlock
	// doesn't clamp the worker count, hence the totalWork >= workers
	// requirement on the parallel path.
	return e.totalWork >= serialArcs && e.totalWork >= int64(e.workers)
}

// serialPhase is the single-owner relaxation loop: RelaxOwned over each
// batch vertex's arcs, improvements appended to worker 0's bucket.
func (e *exec) serialPhase() {
	g, dist := e.g, e.dist
	local := e.out.Take(0)
	var bad bool
	for _, u := range e.batch {
		var b bool
		local, b = RelaxOwned(g, e.wf, g.Offsets[u], g.Offsets[u+1], dist[u], dist, local)
		bad = bad || b
	}
	e.out.Put(0, local)
	if bad {
		e.bad.Store(true)
	}
}

// parallelPhase is one worker's share of a parallel phase: lock-free CAS
// relaxation over its arc slice [lo, hi) of the batch's concatenated
// adjacencies. A vertex whose span straddles a block boundary is
// relaxed by both neighbors, each over its own arc sub-range.
func (e *exec) parallelPhase(lo, hi int) {
	g, dist, offsets, batch := e.g, e.dist, e.offsets, e.batch
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.out.Take(w)
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := batch[vi]
		abase := g.Offsets[u]
		base := abase + (pos - offsets[vi])
		end := abase + (offsets[vi+1] - offsets[vi])
		if stop := abase + (int64(hi) - offsets[vi]); stop < end {
			end = stop
		}
		var bad bool
		local, bad = RelaxSpan(g, e.wf, base, end, atomic.LoadInt64(&dist[u]), dist, local)
		if bad {
			e.bad.Store(true)
		}
		pos = end - abase + offsets[vi]
	}
	e.out.Put(w, local)
}
