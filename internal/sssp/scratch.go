package sssp

import (
	"sync/atomic"

	"snapdyn/internal/compress"
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
	// one is the one-view set Run hands its graph over as, held here so
	// a run allocates no slice.
	one [1]*csr.Graph
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

// run executes delta-stepping from src over a with weights from wf
// (nil: the label), writing into (and returning) the scratch-owned
// distance array.
func (sc *Scratch) run(workers int, a compress.Arcs, wf WeightFunc, delta int64, src edge.ID) []int64 {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	delta, maxW := sc.deltas.ChooseArcs(wf, delta, a)
	dist := sc.bands.Reset(workers, a.N(), maxW, delta)
	e := sc.exec()
	e.arcs, e.wf, e.dist, e.workers = a, wf, dist, workers
	sc.bands.Run(src, e)
	e.arcs = compress.Arcs{}
	return dist
}

// exec is the kernel's Relaxer: a persistent phase body over mutable
// per-phase fields, so phases hand par.ForBlock the same function value
// every time and the steady state allocates no closures.
type exec struct {
	arcs    compress.Arcs
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
		BadWeight(e.wf, e.arcs)
	}
}

// fanOut prefix-sums the batch's degrees into e.offsets and reports
// whether the phase has enough arcs to be worth the fan-out.
func (e *exec) fanOut() bool {
	arcs := e.arcs
	offsets := e.offsets[:0]
	for _, u := range e.batch {
		if arcs.C != nil {
			offsets = append(offsets, arcs.C.Degree(u))
		} else {
			offsets = append(offsets, arcs.View(u).Degree(u))
		}
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
// batch vertex's arc spans, improvements appended to worker 0's bucket.
func (e *exec) serialPhase() {
	arcs, dist := e.arcs, e.dist
	local := e.out.Take(0)
	var bad bool
	for _, u := range e.batch {
		var b bool
		if arcs.C != nil {
			local, b = e.relaxRuns(u, local)
		} else {
			adj, ts := arcs.View(u).Neighbors(u)
			local, b = RelaxOwned(adj, ts, e.wf, dist[u], dist, local)
		}
		bad = bad || b
	}
	e.out.Put(0, local)
	if bad {
		e.bad.Store(true)
	}
}

// relaxRuns is serialPhase's RelaxOwned over u's compressed block,
// decoded a run at a time.
func (e *exec) relaxRuns(u uint32, local []uint32) ([]uint32, bool) {
	var run compress.Run
	du, bad := e.dist[u], false
	for adj, ts := e.arcs.C.Span(&run, u, true); ; adj, ts = run.Next(true) {
		var b bool
		local, b = RelaxOwned(adj, ts, e.wf, du, e.dist, local)
		bad = bad || b
		if run.Left() == 0 {
			return local, bad
		}
	}
}

// parallelPhase is one worker's share of a parallel phase: lock-free CAS
// relaxation over its arc slice [lo, hi) of the batch's concatenated
// adjacencies. A vertex whose span straddles a block boundary is
// relaxed by both neighbors, each over its own arc sub-range.
func (e *exec) parallelPhase(lo, hi int) {
	arcs, dist, offsets, batch := e.arcs, e.dist, e.offsets, e.batch
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.out.Take(w)
	var run compress.Run
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := batch[vi]
		// This block owns u's arcs from up to to.
		from, to := pos-offsets[vi], min(offsets[vi+1], int64(hi))-offsets[vi]
		var adj, ts []uint32
		if arcs.C == nil {
			g := arcs.View(u)
			base := g.Offsets[u]
			adj, ts = g.Adj[base+from:base+to], g.TS[base+from:base+to]
		} else {
			adj, ts = arcs.C.SpanRange(&run, u, from, to, true)
		}
		du := atomic.LoadInt64(&dist[u])
		for {
			var bad bool
			local, bad = RelaxSpan(adj, ts, e.wf, du, dist, local)
			if bad {
				e.bad.Store(true)
			}
			if run.Left() == 0 {
				break
			}
			adj, ts = run.Next(true)
		}
		pos = offsets[vi] + to
	}
	e.out.Put(w, local)
}
