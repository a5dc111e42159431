package traversal

import (
	"math/bits"
	"sync/atomic"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// Strategy selects the frontier-expansion engine.
type Strategy int

const (
	// TopDown always pushes from the frontier: the classic
	// level-synchronous edge-partitioned BFS. Correct on any graph,
	// directed or not.
	TopDown Strategy = iota
	// DirectionOpt switches between top-down push and bottom-up pull by
	// frontier edge mass (Beamer-style direction-optimizing BFS). The
	// pull step discovers a vertex by scanning its own adjacency for a
	// frontier endpoint, so the graph must be symmetric (undirected),
	// and a filtered traversal additionally needs the mirror arc v->u
	// to carry the same time label as u->v (the pull step filters on
	// the reverse arc). Graphs built by csr.FromEdges(undirected=true)
	// satisfy both; snapshots of treap-backed dynamic stores collapse
	// parallel-edge labels per direction and only satisfy the
	// unfiltered requirement.
	DirectionOpt
)

// Default direction-switching thresholds (Beamer et al., SC'12).
const (
	// DefaultAlpha: switch push->pull when the frontier's outgoing edge
	// mass exceeds 1/DefaultAlpha of the arcs out of unvisited vertices.
	DefaultAlpha = 15
	// DefaultBeta: switch pull->push when the frontier shrinks below
	// n/DefaultBeta vertices.
	DefaultBeta = 18
)

// thresholdSkewRef is the degree skew (max degree over mean degree) up
// to which the global defaults apply unchanged. R-MAT instances at the
// paper's parameters sit at or below it; the adjustment kicks in only
// for distributions with markedly heavier tails.
const thresholdSkewRef = 128

// DeriveThresholds returns direction-switching thresholds tuned to the
// graph's degree distribution. Up to a skew (MaxDegree/mean degree) of
// thresholdSkewRef it returns the global defaults; beyond that, each
// doubling of the skew lowers alpha and raises beta. The shift is
// empirical (see the ROADMAP benchmark note): on hub-dominated graphs
// the frontier's edge mass explodes one level before the frontier
// itself saturates, so the default alpha enters pull a level too early
// (scanning mostly-unvisited adjacencies that push would have claimed
// cheaply), and the long tail of degree-1 stragglers keeps late
// frontiers small in vertex count while expensive to finish in push —
// dropping back out of pull early (small beta) costs up to 3x there.
// Alpha is floored at 6 and beta capped at 28. Run derives thresholds
// through here whenever Options leaves Alpha or Beta unset for a
// direction-optimizing traversal, caching the result in the Scratch by
// (n, m) so steady-state runs skip the O(n) degree scan.
func DeriveThresholds(g *csr.Graph) (alpha, beta int64) {
	if g.N == 0 || g.NumEdges() == 0 {
		return DefaultAlpha, DefaultBeta
	}
	return DeriveThresholdsShape(g.N, g.NumEdges(), g.MaxDegree())
}

// DeriveThresholdsShape is DeriveThresholds on the bare shape numbers,
// shared by the plain and compressed adjacency providers (compress
// caches m and max degree at build time, so neither path pays a decode
// scan here) and by the shard fleet, whose shape is a reduction over
// its per-shard views (m summed, max degree maxed).
func DeriveThresholdsShape(n int, m, maxDeg int64) (alpha, beta int64) {
	alpha, beta = DefaultAlpha, DefaultBeta
	if n == 0 || m == 0 {
		return alpha, beta
	}
	mean := m / int64(n)
	if mean < 1 {
		mean = 1
	}
	skew := maxDeg / mean
	for s := skew; s > thresholdSkewRef; s >>= 1 {
		alpha -= 2
		beta += 2
	}
	if alpha < 6 {
		alpha = 6
	}
	if beta > 28 {
		beta = 28
	}
	return alpha, beta
}

// ArcFilter restricts traversal to accepted arcs with endpoint context:
// u is the tail (a frontier vertex), v the head, t the arc's time label.
// Unlike EdgeFilter it can consult per-vertex kernel state — e.g. the
// temporal-betweenness gate "the label must strictly exceed the label of
// the edge that reached u". In the bottom-up (pull) direction the filter
// is evaluated on the mirror arc, so a filtered direction-optimizing
// traversal requires symmetric time labels (csr.FromEdges with
// undirected=true provides them).
type ArcFilter func(u, v uint32, t uint32) bool

// Hooks are the visitor callbacks that turn the traversal engine into a
// substrate for every BFS-shaped kernel (Brandes betweenness, closeness,
// spanning forests, reachability). All hooks are optional; when a hook is
// nil the engine runs the plain fast path for that aspect — a hook-free
// Run is exactly the zero-overhead BFS.
//
// Concurrency: OnArc and Relax are invoked from worker goroutines and
// run concurrently when Options.Workers > 1. Kernels that accumulate
// into shared per-vertex state (sigma, predecessor lists, visit order)
// should run the engine with Workers: 1 per traversal and parallelize
// across traversals, the coarse-grained scheme of Bader & Madduri (ICPP
// 2006); with one worker every hook is invoked serially and, for OnArc,
// in level order. OnLevelEnd is always invoked serially from the level
// loop.
type Hooks struct {
	// OnArc observes every accepted arc (u, v, t) whose head v is
	// settled at the level that is currently expanding: once with
	// claimed=true when the arc discovers v (exactly one claiming arc
	// per discovered vertex), and with claimed=false for every further
	// arc into v from the same expansion (a shortest-path DAG tie).
	// Together the calls enumerate exactly the predecessor edges of the
	// BFS DAG, which is what the Brandes traversal phase consumes. In
	// the bottom-up direction the observed arcs are the mirror arcs, so
	// OnArc consumers that traverse direction-optimized require a
	// symmetric graph (and symmetric labels if t is consumed).
	OnArc func(u, v uint32, t uint32, claimed bool)
	// OnLevelEnd is invoked after every frontier expansion with the
	// level just completed (1-based) and the number of vertices it
	// discovered (possibly 0 for the final expansion). Returning false
	// stops the traversal — the early-exit used by st-connectivity.
	OnLevelEnd func(level int32, discovered int) bool
	// Relax, when set, replaces BFS set-once discovery with
	// label-correcting relaxation: it is invoked for every accepted arc
	// out of the frontier and returns whether the head vertex should
	// (re-)enter the next frontier, typically because a kernel-owned
	// label improved. A vertex may re-enter the frontier on later
	// levels, so Level and Parent record the most recent relaxation
	// (diagnostic only) and Reached counts distinct vertices ever
	// touched. Relaxation is push-only: DirectionOpt is demoted to
	// TopDown, and the relaxation itself must be atomic if Workers > 1.
	Relax func(u, v uint32, t uint32) bool
}

// Options configures a traversal run. The zero value reproduces the
// classic top-down BFS over all arcs with GOMAXPROCS workers.
type Options struct {
	// Workers is the parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Strategy selects top-down or direction-optimizing expansion.
	Strategy Strategy
	// Alpha overrides the push->pull edge-mass threshold (<= 0 uses
	// DefaultAlpha). Larger values switch to bottom-up earlier.
	Alpha int64
	// Beta overrides the pull->push frontier-size threshold (<= 0 uses
	// DefaultBeta). Larger values stay in bottom-up longer.
	Beta int64
	// Filter restricts traversal to accepted arcs by time label; nil
	// accepts all.
	Filter EdgeFilter
	// Arc restricts traversal with endpoint context; nil accepts all.
	// Applied after Filter.
	Arc ArcFilter
	// Hooks are the visitor callbacks; the zero value observes nothing.
	Hooks Hooks
}

// Scratch is the reusable arena for traversals: the two hybrid
// frontiers, the per-worker discovery buckets, the degree prefix-sum
// buffer, and the persistent executor whose closure set is allocated
// once and reused by every level of every Run. A Scratch passed to
// successive Run calls (together with a reused Result) makes
// steady-state traversals allocation-free apart from the O(workers)
// goroutine fan-out. A Scratch must not be shared by concurrent
// traversals.
type Scratch struct {
	cur, next *frontier.Frontier
	buckets   *frontier.Buckets
	offsets   []int64
	ex        *exec

	// Cached DeriveThresholds result, keyed by (n, m). The key is a
	// heuristic identity — a different graph with the same shape reuses
	// the cached thresholds, which only ever affects the direction
	// switch points, never correctness — chosen over a graph pointer so
	// a long-lived Scratch does not pin a retired snapshot.
	thrN              int
	thrM              int64
	thrAlpha, thrBeta int64
}

// NewScratch returns an empty arena; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// thresholds returns the derived direction-switching thresholds for the
// graph shape, recomputing only when the shape changed since the last
// call.
func (s *Scratch) thresholds(n int, m, maxDeg int64) (int64, int64) {
	if s.thrAlpha == 0 || s.thrN != n || s.thrM != m {
		s.thrAlpha, s.thrBeta = DeriveThresholdsShape(n, m, maxDeg)
		s.thrN, s.thrM = n, m
	}
	return s.thrAlpha, s.thrBeta
}

func (s *Scratch) ensure(n, workers int) {
	if s.cur == nil {
		s.cur, s.next = frontier.New(n), frontier.New(n)
		s.buckets = frontier.NewBuckets(workers)
	} else {
		s.cur.Grow(n)
		s.next.Grow(n)
		s.buckets.Grow(workers)
	}
	if cap(s.offsets) < n+1 {
		s.offsets = make([]int64, 0, n+1)
	}
}

// exec returns the persistent executor, binding its level-loop bodies
// exactly once per Scratch so the per-level par calls reuse the same
// function values instead of allocating fresh closures.
func (s *Scratch) exec() *exec {
	if s.ex == nil {
		e := &exec{sc: s}
		e.topDownFast = e.topDownFastBody
		e.topDownVisit = e.topDownVisitBody
		e.bottomUpFast = e.bottomUpFastBody
		e.bottomUpVisit = e.bottomUpVisitBody
		e.relaxBody = e.relaxStepBody
		e.streamTopFast = e.streamTopFastBody
		e.streamTopVisit = e.streamTopVisitBody
		e.streamBotFast = e.streamBotFastBody
		e.streamBotVisit = e.streamBotVisitBody
		e.streamRelax = e.streamRelaxBody
		s.ex = e
	}
	return s.ex
}

// Reset prepares r for a traversal over n vertices, reusing its arrays
// when they are large enough.
func (r *Result) Reset(workers, n int) {
	if cap(r.Level) < n || cap(r.Parent) < n {
		r.Level = make([]int32, n)
		r.Parent = make([]uint32, n)
	} else {
		r.Level = r.Level[:n]
		r.Parent = r.Parent[:n]
	}
	lvl := r.Level
	if workers == 1 {
		// Plain loop: the closure below would be the one allocation
		// left in a serial steady-state traversal.
		for i := range lvl {
			lvl[i] = NotVisited
		}
	} else {
		par.ForBlock(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				lvl[i] = NotVisited
			}
		})
	}
	if r.Visited == nil {
		r.Visited = frontier.NewBitmap(n)
	} else {
		r.Visited.Grow(n)
	}
	r.Reached = 0
	r.Levels = 0
}

// Run executes a multi-source traversal under opt, writing into res
// (allocated when nil) and drawing buffers from scratch (a temporary
// arena when nil). Sources must be distinct. It returns res.
func Run(g *csr.Graph, sources []uint32, opt Options, scratch *Scratch, res *Result) *Result {
	return runEngine(g, nil, sources, opt, scratch, res)
}

// RunStream executes the same traversal directly over a gap-compressed
// adjacency: every engine mode (top-down, direction-optimizing pull,
// relaxation) decodes arcs through a zero-alloc compress.Cursor instead
// of indexing CSR spans. The streamed top-down step partitions by
// frontier *vertices* (dynamic chunks) rather than by edges — a
// compressed block has no random access into the middle of an arc list —
// so a single mega-hub level is serialized onto one worker; the
// direction heuristic's pull switch covers exactly that regime.
// Semantics, hooks, thresholds, and results are otherwise identical to
// Run on the equivalent CSR.
func RunStream(cg *compress.Graph, sources []uint32, opt Options, scratch *Scratch, res *Result) *Result {
	return runEngine(nil, cg, sources, opt, scratch, res)
}

// runEngine is the shared level loop behind Run (g set) and RunStream
// (cg set): exactly one of the two adjacency providers is non-nil.
func runEngine(g *csr.Graph, cg *compress.Graph, sources []uint32, opt Options, scratch *Scratch, res *Result) *Result {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	var n int
	var numEdges, maxDeg int64
	if cg != nil {
		n, numEdges, maxDeg = cg.N, cg.NumEdges(), cg.MaxDegree()
	} else {
		n, numEdges, maxDeg = g.N, g.NumEdges(), 0 // maxDeg lazy below
	}
	if res == nil {
		res = &Result{}
	}
	res.Reset(workers, n)
	if scratch == nil {
		scratch = NewScratch()
	}
	scratch.ensure(n, workers)

	// Unset thresholds derive from the degree distribution; explicit
	// Options values always win. The derivation only matters (and only
	// costs its degree scan, cached in the Scratch) when the direction
	// heuristic is live.
	alpha, beta := opt.Alpha, opt.Beta
	if (alpha <= 0 || beta <= 0) && opt.Strategy == DirectionOpt && opt.Hooks.Relax == nil {
		if cg == nil && (scratch.thrAlpha == 0 || scratch.thrN != n || scratch.thrM != numEdges) {
			maxDeg = g.MaxDegree() // only pay the degree scan on a shape change
		}
		da, db := scratch.thresholds(n, numEdges, maxDeg)
		if alpha <= 0 {
			alpha = da
		}
		if beta <= 0 {
			beta = db
		}
	}
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if beta <= 0 {
		beta = DefaultBeta
	}

	e := scratch.exec()
	e.g, e.cg, e.res = g, cg, res
	e.filter, e.arc = opt.Filter, opt.Arc
	e.onArc, e.relax = opt.Hooks.OnArc, opt.Hooks.Relax
	e.workers = workers
	e.cur, e.next = scratch.cur, scratch.next

	for _, s := range sources {
		res.Level[s] = 0
		res.Parent[s] = s
		res.Visited.Set(s)
	}
	res.Reached = len(sources)
	e.cur.AppendAll(sources)

	// Direction heuristic state: the current frontier's outgoing edge
	// mass, and the arcs still leaving unvisited vertices. Maintained
	// only when the heuristic can use it, so pure top-down runs pay no
	// degree-sum bookkeeping. Relaxation is push-only: a pull step
	// cannot re-relax already-visited vertices.
	relaxing := e.relax != nil
	needMass := opt.Strategy == DirectionOpt && !relaxing
	e.needMass = needMass
	var curEdges, unexplored int64
	if needMass {
		if cg != nil {
			curEdges = cg.DegreeSum(workers, sources)
		} else {
			curEdges = g.DegreeSum(workers, sources)
		}
		unexplored = numEdges - curEdges
	}
	pull := false

	level := int32(0)
	for e.cur.Count() > 0 {
		level++
		e.level = level
		if needMass {
			if pull {
				if int64(e.cur.Count()) < int64(n)/beta {
					pull = false
				}
			} else if curEdges > unexplored/alpha {
				pull = true
			}
		}
		var found int
		var foundEdges int64
		switch {
		case relaxing:
			found = e.runRelax()
		case pull:
			found, foundEdges = e.runBottomUp()
		default:
			found, foundEdges = e.runTopDown()
		}
		res.Reached += found
		if needMass {
			unexplored -= foundEdges
			curEdges = foundEdges
		}
		stop := false
		if opt.Hooks.OnLevelEnd != nil {
			stop = !opt.Hooks.OnLevelEnd(level, found)
		}
		e.cur, e.next = e.next, e.cur
		e.next.Reset()
		if stop {
			break
		}
	}
	res.Levels = int(level)
	// Drop the per-run references so a long-lived Scratch does not pin
	// the graph, result, or kernel closures between traversals.
	e.g, e.cg, e.res = nil, nil, nil
	e.filter, e.arc, e.onArc, e.relax = nil, nil, nil, nil
	e.cur, e.next, e.curBits, e.nextBits, e.verts, e.offsets = nil, nil, nil, nil, nil, nil
	return res
}

// exec is the per-Scratch engine executor: a persistent set of
// level-loop bodies over mutable per-level fields, so every level of
// every Run hands the par primitives the same function values and the
// steady state allocates no closures at all.
type exec struct {
	sc  *Scratch
	g   *csr.Graph      // plain adjacency provider (Run)
	cg  *compress.Graph // streaming adjacency provider (RunStream)
	res *Result

	filter EdgeFilter
	arc    ArcFilter
	onArc  func(u, v uint32, t uint32, claimed bool)
	relax  func(u, v uint32, t uint32) bool

	workers  int
	needMass bool
	level    int32

	cur, next *frontier.Frontier
	verts     []uint32         // cur's sparse view (top-down / relax)
	offsets   []int64          // prefix-summed frontier degrees (top-down)
	totalWork int64            // arcs out of the frontier (top-down)
	curBits   *frontier.Bitmap // cur as a bitmap (bottom-up)
	nextBits  *frontier.Bitmap // next's dense writer (bottom-up / relax)

	found      int64 // vertices discovered this level
	foundEdges int64 // their total out-degree (needMass), or relax enqueues

	topDownFast   func(lo, hi int)
	topDownVisit  func(lo, hi int)
	bottomUpFast  func(lo, hi int)
	bottomUpVisit func(lo, hi int)
	relaxBody     func(lo, hi int)

	// Streaming-decode bodies (RunStream).
	streamTopFast  func(lo, hi int)
	streamTopVisit func(lo, hi int)
	streamBotFast  func(lo, hi int)
	streamBotVisit func(lo, hi int)
	streamRelax    func(lo, hi int)
}

// runTopDown pushes from the frontier along out-arcs, partitioning the
// level's work by *edges*: a prefix sum over frontier degrees lets each
// worker claim an equal slice of arcs, so one high-degree hub cannot
// serialize a level. Discoveries are claimed with a CAS on the level
// array and collected in per-worker buckets. Returns the number of
// vertices discovered and, when needMass is set, their total out-degree
// (the next frontier's edge mass).
func (e *exec) runTopDown() (int, int64) {
	if e.cg != nil {
		return e.runTopDownStream()
	}
	verts := e.cur.Vertices()
	offsets := e.sc.offsets[:0]
	for _, u := range verts {
		offsets = append(offsets, e.g.Degree(u))
	}
	offsets = append(offsets, 0)
	e.sc.offsets = offsets
	e.verts, e.offsets = verts, offsets
	e.totalWork = psort.ExclusiveScan(e.workers, offsets)
	e.found, e.foundEdges = 0, 0
	if e.totalWork > 0 {
		body := e.topDownFast
		if e.onArc != nil || e.arc != nil {
			body = e.topDownVisit
		}
		par.ForBlock(e.workers, int(e.totalWork), body)
	}
	e.sc.buckets.Drain(e.next)
	return int(e.found), e.foundEdges
}

// topDownFastBody is the hook-free push inner loop: the original BFS
// fast path plus the Visited shadow-bitmap publication.
func (e *exec) topDownFastBody(lo, hi int) {
	g, res, offsets, verts := e.g, e.res, e.offsets, e.verts
	level, filter, needMass := e.level, e.filter, e.needMass
	visited := res.Visited
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.sc.buckets.Take(w)
	var edges int64
	// Locate the first frontier vertex whose arc range intersects
	// [lo, hi).
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := verts[vi]
		base := g.Offsets[u] + (pos - offsets[vi])
		end := g.Offsets[u] + (offsets[vi+1] - offsets[vi])
		stop := g.Offsets[u] + (int64(hi) - offsets[vi])
		if stop < end {
			end = stop
		}
		for p := base; p < end; p++ {
			v := g.Adj[p]
			if filter != nil && !filter(g.TS[p]) {
				continue
			}
			if atomic.LoadInt32(&res.Level[v]) != NotVisited {
				continue
			}
			if atomic.CompareAndSwapInt32(&res.Level[v], NotVisited, level) {
				res.Parent[v] = u
				visited.TrySet(v)
				local = append(local, v)
				if needMass {
					edges += g.Degree(v)
				}
			}
		}
		pos = end - g.Offsets[u] + offsets[vi]
	}
	e.sc.buckets.Put(w, local)
	atomic.AddInt64(&e.found, int64(len(local)))
	if needMass {
		atomic.AddInt64(&e.foundEdges, edges)
	}
}

// topDownVisitBody is the visitor push inner loop: same partitioning as
// the fast path, plus the endpoint-aware arc filter and the OnArc
// callback for every arc that settles at the expanding level (claimed
// discoveries and same-level DAG ties alike).
func (e *exec) topDownVisitBody(lo, hi int) {
	g, res, offsets, verts := e.g, e.res, e.offsets, e.verts
	level, filter, arcF, onArc, needMass := e.level, e.filter, e.arc, e.onArc, e.needMass
	visited := res.Visited
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.sc.buckets.Take(w)
	var edges int64
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := verts[vi]
		base := g.Offsets[u] + (pos - offsets[vi])
		end := g.Offsets[u] + (offsets[vi+1] - offsets[vi])
		stop := g.Offsets[u] + (int64(hi) - offsets[vi])
		if stop < end {
			end = stop
		}
		for p := base; p < end; p++ {
			v := g.Adj[p]
			t := g.TS[p]
			if filter != nil && !filter(t) {
				continue
			}
			if arcF != nil && !arcF(u, v, t) {
				continue
			}
			lv := atomic.LoadInt32(&res.Level[v])
			if lv == NotVisited {
				if atomic.CompareAndSwapInt32(&res.Level[v], NotVisited, level) {
					res.Parent[v] = u
					visited.TrySet(v)
					local = append(local, v)
					if needMass {
						edges += g.Degree(v)
					}
					if onArc != nil {
						onArc(u, v, t, true)
					}
					continue
				}
				// Lost the claim race: v settled at some level, reload.
				lv = atomic.LoadInt32(&res.Level[v])
			}
			if lv == level && onArc != nil {
				onArc(u, v, t, false)
			}
		}
		pos = end - g.Offsets[u] + offsets[vi]
	}
	e.sc.buckets.Put(w, local)
	atomic.AddInt64(&e.found, int64(len(local)))
	if needMass {
		atomic.AddInt64(&e.foundEdges, edges)
	}
}

// bottomUpChunk is the dynamic-scheduling grain for the pull step. It
// must stay a multiple of 64 so every chunk owns whole words of the
// Visited bitmap and can update them without atomics.
const bottomUpChunk = 512

// relaxChunk is the dynamic-scheduling grain for relaxation steps.
const relaxChunk = 64

// runBottomUp pulls: every unvisited vertex scans its own adjacency for
// a parent already on the frontier and claims itself on the first hit —
// no CAS needed because each vertex is owned by exactly one worker. The
// Visited shadow bitmap lets the scan skip 64 finished vertices at a
// time with a single word load, which is most of the graph on the
// saturated late levels where the pull direction is active. The produced
// frontier is published into a bitmap with atomic word-OR. Returns
// discoveries and their total out-degree.
func (e *exec) runBottomUp() (int, int64) {
	e.curBits = e.cur.Bits(e.workers)
	e.nextBits = e.next.DenseWriter()
	e.found, e.foundEdges = 0, 0
	n := 0
	var body func(lo, hi int)
	if e.cg != nil {
		n = e.cg.N
		body = e.streamBotFast
		if e.onArc != nil || e.arc != nil {
			body = e.streamBotVisit
		}
	} else {
		n = e.g.N
		body = e.bottomUpFast
		if e.onArc != nil || e.arc != nil {
			body = e.bottomUpVisit
		}
	}
	par.ForDynamic(e.workers, n, bottomUpChunk, body)
	e.next.SetCount(int(e.found))
	return int(e.found), e.foundEdges
}

// bottomUpFastBody is the hook-free pull inner loop: first-hit claim
// with word-granular skipping of finished vertices. [lo, hi) is always
// chunk-aligned (bottomUpChunk is a multiple of 64), so this worker owns
// the visited words it reads and writes; only the final word of the
// final chunk can be partial, guarded by the v >= hi break.
func (e *exec) bottomUpFastBody(lo, hi int) {
	g, res := e.g, e.res
	level, filter := e.level, e.filter
	curBits, nextBits := e.curBits, e.nextBits
	words := res.Visited.Words()
	var cnt, edges int64
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := words[wi]
		if w == ^uint64(0) {
			continue // 64 finished vertices: skip the whole word
		}
		base := wi << 6
		for m := ^w; m != 0; m &= m - 1 {
			v := base + bits.TrailingZeros64(m)
			if v >= hi {
				break
			}
			alo, ahi := g.Offsets[v], g.Offsets[v+1]
			for p := alo; p < ahi; p++ {
				u := g.Adj[p]
				if !curBits.Get(u) {
					continue
				}
				if filter != nil && !filter(g.TS[p]) {
					continue
				}
				res.Level[v] = level
				res.Parent[v] = u
				words[wi] |= 1 << (uint(v) & 63)
				nextBits.TrySet(uint32(v))
				cnt++
				edges += ahi - alo
				break
			}
		}
	}
	if cnt > 0 {
		atomic.AddInt64(&e.found, cnt)
		atomic.AddInt64(&e.foundEdges, edges)
	}
}

// bottomUpVisitBody is the visitor pull inner loop. When an OnArc hook
// is present the scan cannot stop at the first frontier parent: it keeps
// scanning the full adjacency so every predecessor arc of the claimed
// vertex is reported (as its mirror arc), exactly matching the arcs the
// push direction would observe on a symmetric graph.
func (e *exec) bottomUpVisitBody(lo, hi int) {
	g, res := e.g, e.res
	level, filter, arcF, onArc := e.level, e.filter, e.arc, e.onArc
	curBits, nextBits := e.curBits, e.nextBits
	words := res.Visited.Words()
	var cnt, edges int64
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := words[wi]
		if w == ^uint64(0) {
			continue
		}
		base := wi << 6
		for m := ^w; m != 0; m &= m - 1 {
			v := base + bits.TrailingZeros64(m)
			if v >= hi {
				break
			}
			claimed := false
			alo, ahi := g.Offsets[v], g.Offsets[v+1]
			for p := alo; p < ahi; p++ {
				u := g.Adj[p]
				if !curBits.Get(u) {
					continue
				}
				t := g.TS[p]
				if filter != nil && !filter(t) {
					continue
				}
				if arcF != nil && !arcF(u, uint32(v), t) {
					continue
				}
				if !claimed {
					claimed = true
					res.Level[v] = level
					res.Parent[v] = u
					words[wi] |= 1 << (uint(v) & 63)
					nextBits.TrySet(uint32(v))
					cnt++
					edges += ahi - alo
					if onArc == nil {
						break
					}
					onArc(u, uint32(v), t, true)
					continue
				}
				onArc(u, uint32(v), t, false)
			}
		}
	}
	if cnt > 0 {
		atomic.AddInt64(&e.found, cnt)
		atomic.AddInt64(&e.foundEdges, edges)
	}
}

// runRelax expands one label-correcting round: every accepted arc out of
// the frontier is offered to the Relax hook, and heads it accepts are
// deduplicated into the next frontier through its dense writer. Returns
// the number of vertices touched for the first time (the Reached
// contribution); the next frontier's size is the deduplicated enqueue
// count.
func (e *exec) runRelax() int {
	e.verts = e.cur.Vertices()
	e.nextBits = e.next.DenseWriter()
	e.found, e.foundEdges = 0, 0
	body := e.relaxBody
	if e.cg != nil {
		body = e.streamRelax
	}
	par.ForDynamic(e.workers, len(e.verts), relaxChunk, body)
	e.next.SetCount(int(e.foundEdges))
	return int(e.found)
}

func (e *exec) relaxStepBody(lo, hi int) {
	g, res := e.g, e.res
	filter, arcF, relax := e.filter, e.arc, e.relax
	level, nextBits := e.level, e.nextBits
	var enq, newly int64
	for _, u := range e.verts[lo:hi] {
		alo, ahi := g.Offsets[u], g.Offsets[u+1]
		for p := alo; p < ahi; p++ {
			v := g.Adj[p]
			t := g.TS[p]
			if filter != nil && !filter(t) {
				continue
			}
			if arcF != nil && !arcF(u, v, t) {
				continue
			}
			if !relax(u, v, t) {
				continue
			}
			// Level and Parent are last-writer-wins diagnostics in relax
			// mode; both stores are atomic so a parallel relaxation
			// (atomic hook, Workers > 1) stays race-free.
			atomic.StoreInt32(&res.Level[v], level)
			atomic.StoreUint32(&res.Parent[v], u)
			if res.Visited.TrySet(v) {
				newly++
			}
			if nextBits.TrySet(v) {
				enq++
			}
		}
	}
	if newly > 0 || enq > 0 {
		atomic.AddInt64(&e.found, newly)
		atomic.AddInt64(&e.foundEdges, enq)
	}
}
