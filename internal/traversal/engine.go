package traversal

import (
	"math/bits"
	"slices"
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
	return deriveThresholdsShape(g.N, g.NumEdges(), g.MaxDegree())
}

// deriveThresholdsShape is DeriveThresholds on the bare shape numbers,
// shared by the view-set and compressed adjacency providers (compress
// caches m and max degree at build time, so it pays no decode scan
// here; a view set's shape is a reduction over its views, m summed and
// max degree maxed).
func deriveThresholdsShape(n int, m, maxDeg int64) (alpha, beta int64) {
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
// st-connectivity, k-hop neighbourhoods). All hooks are optional; when a
// hook is nil the engine runs the plain fast path for that aspect — a
// hook-free Run is exactly the zero-overhead BFS.
//
// Concurrency: OnArc is invoked from worker goroutines and runs
// concurrently when Options.Workers > 1. Kernels that accumulate into
// shared per-vertex state (sigma, predecessor lists, visit order) should
// run the engine with Workers: 1 per traversal and parallelize across
// traversals, the coarse-grained scheme of Bader & Madduri (ICPP 2006);
// with one worker OnArc is invoked serially and in level order.
// OnLevelEnd is always invoked serially from the level loop.
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

	// one is the one-view set Run hands the engine its graph as, held
	// here so a Run allocates no slice.
	one [1]*csr.Graph
	// held[r] marks the bits b of a 64-vertex Visited word with
	// b%P == r, for the pull step over a P-view set (see foreign).
	held []uint64
}

// NewScratch returns an empty arena; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// thresholds returns the derived direction-switching thresholds for the
// graph shape, recomputing only when the shape changed since the last
// call.
func (s *Scratch) thresholds(n int, m, maxDeg int64) (int64, int64) {
	if s.thrAlpha == 0 || s.thrN != n || s.thrM != m {
		s.thrAlpha, s.thrBeta = deriveThresholdsShape(n, m, maxDeg)
		s.thrN, s.thrM = n, m
	}
	return s.thrAlpha, s.thrBeta
}

// SizeBytes returns the bytes the arena retains between runs: the
// frontiers, the discovery buckets, the prefix-sum buffer and the pull
// masks.
func (s *Scratch) SizeBytes() int64 {
	b := 8 * int64(cap(s.offsets)+cap(s.held))
	if s.cur != nil {
		b += s.cur.SizeBytes() + s.next.SizeBytes() + s.buckets.SizeBytes()
	}
	return b
}

// ensureHeld sizes the held masks for a p-view set.
func (s *Scratch) ensureHeld(p int) {
	if p == 1 || len(s.held) == p {
		return
	}
	s.held = make([]uint64, p)
	for r := range s.held {
		for b := r; b < 64; b += p {
			s.held[r] |= 1 << b
		}
	}
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
		s.ex = e
	}
	return s.ex
}

// Reset prepares r for a traversal over n vertices, reusing its arrays
// when they are large enough. Parent is sized only when it is non-nil:
// a nil Parent stays nil, and the traversal records no parents.
func (r *Result) Reset(workers, n int) {
	r.Level = slices.Grow(r.Level[:0], n)[:n]
	if r.Parent != nil {
		r.Parent = slices.Grow(r.Parent[:0], n)[:n]
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
	r.PullLevels = 0
}

// Run executes a multi-source traversal under opt, writing into res
// and drawing buffers from scratch (a temporary arena when nil).
// Sources must be distinct. It returns res. When res is nil Run
// allocates one that records Parent; a caller's res records Parent only
// if its Parent is non-nil (see Result.Parent). Run is RunArcs over the
// one-view set {g}.
func Run(g *csr.Graph, sources []uint32, opt Options, scratch *Scratch, res *Result) *Result {
	if scratch == nil {
		scratch = NewScratch()
	}
	scratch.one[0] = g
	res = RunArcs(compress.Arcs{Views: scratch.one[:]}, sources, opt, scratch, res)
	scratch.one[0] = nil
	return res
}

// RunOver is Run over a view set whose union is the graph: every view
// spans the same vertex ids, and vertex u's arcs are its span in
// views[u%len(views)] (a shard fleet's per-shard CSRs; one CSR is the
// one-view set). It is RunArcs over the view set.
func RunOver(views []*csr.Graph, sources []uint32, opt Options, scratch *Scratch, res *Result) *Result {
	return RunArcs(compress.Arcs{Views: views}, sources, opt, scratch, res)
}

// RunStream is RunArcs over a gap-compressed graph.
func RunStream(cg *compress.Graph, sources []uint32, opt Options, scratch *Scratch, res *Result) *Result {
	return RunArcs(compress.Arcs{C: cg}, sources, opt, scratch, res)
}

// RunArcs is Run over the arcs wherever they live: a view set or a
// compressed graph. Every level body reads vertex u's arcs as []uint32
// spans, u's CSR span in its view or its compressed block decoded a run
// at a time, so the level loop, the edge-partitioned push, the pull
// step, the hooks and the thresholds are one code path for every
// layout, and the result is Run's on the equivalent CSR. On a view set
// the view is chosen once per expanded or scanned vertex, never per
// arc. Pull levels scan u's arcs as its in-arcs, so DirectionOpt still
// requires a symmetric graph. A push level that hands a worker the
// middle of a compressed block decodes the gaps before its share.
func RunArcs(arcs compress.Arcs, sources []uint32, opt Options, scratch *Scratch, res *Result) *Result {
	workers := opt.Workers
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	n, numEdges := arcs.N(), arcs.NumEdges()
	if res == nil {
		res = &Result{Parent: []uint32{}}
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
	if (alpha <= 0 || beta <= 0) && opt.Strategy == DirectionOpt {
		var maxDeg int64
		if scratch.thrAlpha == 0 || scratch.thrN != n || scratch.thrM != numEdges {
			maxDeg = arcs.MaxDegree() // a degree scan on a view set: only on a shape change
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
	e.arcs, e.res = arcs, res
	e.filter, e.arc = opt.Filter, opt.Arc
	e.onArc = opt.Hooks.OnArc
	e.workers = workers
	e.cur, e.next = scratch.cur, scratch.next

	for _, s := range sources {
		res.Level[s] = 0
		if res.Parent != nil {
			res.Parent[s] = s
		}
		res.Visited.Set(s)
	}
	res.Reached = len(sources)
	e.cur.AppendAll(sources)

	// Direction heuristic state: the current frontier's outgoing edge
	// mass, and the arcs still leaving unvisited vertices. Maintained
	// only when the heuristic can use it, so pure top-down runs pay no
	// degree-sum bookkeeping.
	needMass := opt.Strategy == DirectionOpt
	e.needMass = needMass
	var curEdges, unexplored int64
	if needMass {
		curEdges = arcs.DegreeSum(workers, sources)
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
		if pull {
			res.PullLevels++
			found, foundEdges = e.runBottomUp()
		} else {
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
	e.arcs, e.res = compress.Arcs{}, nil
	e.filter, e.arc, e.onArc = nil, nil, nil
	e.cur, e.next, e.curBits, e.nextBits, e.verts, e.offsets = nil, nil, nil, nil, nil, nil
	return res
}

// exec is the per-Scratch engine executor: a persistent set of
// level-loop bodies over mutable per-level fields, so every level of
// every Run hands the par primitives the same function values and the
// steady state allocates no closures at all.
type exec struct {
	sc   *Scratch
	arcs compress.Arcs
	res  *Result

	filter EdgeFilter
	arc    ArcFilter
	onArc  func(u, v uint32, t uint32, claimed bool)

	workers  int
	needMass bool
	level    int32

	cur, next *frontier.Frontier
	verts     []uint32         // cur's sparse view (top-down)
	offsets   []int64          // prefix-summed frontier degrees (top-down)
	totalWork int64            // arcs out of the frontier (top-down)
	curBits   *frontier.Bitmap // cur as a bitmap (bottom-up)
	nextBits  *frontier.Bitmap // next's dense writer (bottom-up)

	found      int64 // vertices discovered this level
	foundEdges int64 // their total out-degree (needMass)

	topDownFast   func(lo, hi int)
	topDownVisit  func(lo, hi int)
	bottomUpFast  func(lo, hi int)
	bottomUpVisit func(lo, hi int)
}

// runTopDown pushes from the frontier along out-arcs, partitioning the
// level's work by *edges*: a prefix sum over frontier degrees lets each
// worker claim an equal slice of arcs, so one high-degree hub cannot
// serialize a level. Discoveries are claimed with a CAS on the level
// array and collected in per-worker buckets. Returns the number of
// vertices discovered and, when needMass is set, their total out-degree
// (the next frontier's edge mass).
func (e *exec) runTopDown() (int, int64) {
	verts, arcs := e.cur.Vertices(), e.arcs
	offsets := e.sc.offsets[:0]
	for _, u := range verts {
		if arcs.C != nil {
			offsets = append(offsets, arcs.C.Degree(u))
		} else {
			offsets = append(offsets, arcs.View(u).Degree(u))
		}
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
// fast path plus the Visited shadow-bitmap publication. The block
// [lo, hi) of the level's arcs covers a run of frontier vertices, the
// first and last possibly in part; each vertex's share is read as
// spans (see compress.Graph.Span).
func (e *exec) topDownFastBody(lo, hi int) {
	arcs, res, offsets, verts := e.arcs, e.res, e.offsets, e.verts
	level, filter, needMass := e.level, e.filter, e.needMass
	labels := filter != nil
	visited, parent := res.Visited, res.Parent
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.sc.buckets.Take(w)
	var run compress.Run
	// Locate the first frontier vertex whose arc range intersects
	// [lo, hi).
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := verts[vi]
		// This block owns u's arcs from up to to.
		from, to := pos-offsets[vi], min(offsets[vi+1], int64(hi))-offsets[vi]
		var adj, ts []uint32
		if arcs.C == nil {
			g := arcs.View(u)
			base := g.Offsets[u]
			adj, ts = g.Adj[base+from:base+to], g.TS[base+from:base+to]
		} else {
			adj, ts = arcs.C.SpanRange(&run, u, from, to, labels)
		}
		for {
			ts = ts[:len(adj)]
			for i, v := range adj {
				if filter != nil && !filter(ts[i]) {
					continue
				}
				if atomic.LoadInt32(&res.Level[v]) != NotVisited {
					continue
				}
				if atomic.CompareAndSwapInt32(&res.Level[v], NotVisited, level) {
					if parent != nil {
						parent[v] = u
					}
					visited.TrySet(v)
					local = append(local, v)
				}
			}
			if run.Left() == 0 {
				break
			}
			adj, ts = run.Next(labels)
		}
		pos = offsets[vi] + to
	}
	e.sc.buckets.Put(w, local)
	atomic.AddInt64(&e.found, int64(len(local)))
	if needMass {
		atomic.AddInt64(&e.foundEdges, arcs.DegreeSum(1, local))
	}
}

// topDownVisitBody is the visitor push inner loop: same partitioning as
// the fast path, plus the endpoint-aware arc filter and the OnArc
// callback for every arc that settles at the expanding level (claimed
// discoveries and same-level DAG ties alike).
func (e *exec) topDownVisitBody(lo, hi int) {
	arcs, res, offsets, verts := e.arcs, e.res, e.offsets, e.verts
	level, filter, arcF, onArc, needMass := e.level, e.filter, e.arc, e.onArc, e.needMass
	labels := filter != nil || arcF != nil || onArc != nil
	visited, parent := res.Visited, res.Parent
	w := par.BlockIndex(e.workers, int(e.totalWork), lo)
	local := e.sc.buckets.Take(w)
	var run compress.Run
	vi := psort.SearchOffsets(offsets, int64(lo))
	for pos := int64(lo); pos < int64(hi); {
		for offsets[vi+1] <= pos {
			vi++
		}
		u := verts[vi]
		from, to := pos-offsets[vi], min(offsets[vi+1], int64(hi))-offsets[vi]
		var adj, ts []uint32
		if arcs.C == nil {
			g := arcs.View(u)
			base := g.Offsets[u]
			adj, ts = g.Adj[base+from:base+to], g.TS[base+from:base+to]
		} else {
			adj, ts = arcs.C.SpanRange(&run, u, from, to, labels)
		}
		for {
			ts = ts[:len(adj)]
			for i, v := range adj {
				t := ts[i]
				if filter != nil && !filter(t) {
					continue
				}
				if arcF != nil && !arcF(u, v, t) {
					continue
				}
				lv := atomic.LoadInt32(&res.Level[v])
				if lv == NotVisited {
					if atomic.CompareAndSwapInt32(&res.Level[v], NotVisited, level) {
						if parent != nil {
							parent[v] = u
						}
						visited.TrySet(v)
						local = append(local, v)
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
			if run.Left() == 0 {
				break
			}
			adj, ts = run.Next(labels)
		}
		pos = offsets[vi] + to
	}
	e.sc.buckets.Put(w, local)
	atomic.AddInt64(&e.found, int64(len(local)))
	if needMass {
		atomic.AddInt64(&e.foundEdges, arcs.DegreeSum(1, local))
	}
}

// bottomUpChunk is the dynamic-scheduling grain for the pull step. It
// must stay a multiple of 64 so every chunk owns whole words of the
// Visited bitmap and can update them without atomics.
const bottomUpChunk = 512

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
	if e.arcs.C == nil {
		e.sc.ensureHeld(len(e.arcs.Views))
	}
	body := e.bottomUpFast
	if e.onArc != nil || e.arc != nil {
		body = e.bottomUpVisit
	}
	par.ForDynamic(e.workers, e.arcs.N(), bottomUpChunk, body)
	e.next.SetCount(int(e.found))
	return int(e.found), e.foundEdges
}

// foreign returns the bits of visited word wi whose vertices view vs
// does not hold: vertex v is held by view v%P, so of the word's vertices
// 64*wi + b it holds those with b%P == (vs - 64*wi) mod P. A one-view
// set, like a compressed graph, holds every vertex.
func (e *exec) foreign(vs, wi int) uint64 {
	p := len(e.arcs.Views)
	if p <= 1 {
		return 0
	}
	r := vs - (wi<<6)%p
	if r < 0 {
		r += p
	}
	return ^e.sc.held[r]
}

// bottomUpFastBody is the hook-free pull inner loop: first-hit claim
// with word-granular skipping of finished vertices. [lo, hi) is always
// chunk-aligned (bottomUpChunk is a multiple of 64), so this worker owns
// the visited words it reads and writes; only the final word of the
// final chunk can be partial, guarded by the v >= hi break. On a view
// set the chunk is scanned once per view, each pass over the vertices
// that view holds (the others masked as finished), so the view is fixed
// inside the loops and a one-view set scans once with nothing masked; a
// compressed graph is scanned once.
func (e *exec) bottomUpFastBody(lo, hi int) {
	if e.arcs.C != nil {
		e.bottomUpFastScan(nil, 0, lo, hi)
		return
	}
	for vs, g := range e.arcs.Views {
		e.bottomUpFastScan(g, vs, lo, hi)
	}
}

// bottomUpFastScan is bottomUpFastBody's pass over the vertices of
// [lo, hi) that view vs, g, holds, or over all of them when g is nil
// and the arcs are compressed. Each 64-vertex word with unvisited
// vertices is scanned in two steps: find the first frontier parent of
// each of them, claiming the vertex (Level, Parent) on the hit, then
// publish the word's claims to Visited and the next frontier at once.
// A view's spans are searched in place, inline; a compressed word goes
// to pullRuns. The search is the scan's only per-vertex work, and a
// decoder call inside the vertex loop makes the compiler spill every
// value the loop keeps in registers, a fifth of the pull step's time on
// a CSR; one call per word costs nothing measurable.
func (e *exec) bottomUpFastScan(g *csr.Graph, vs, lo, hi int) {
	res := e.res
	level, filter, curBits := e.level, e.filter, e.curBits
	words, nextWords, parent := res.Visited.Words(), e.nextBits.Words(), res.Parent
	var cnt, edges int64
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := words[wi] | e.foreign(vs, wi)
		if w == ^uint64(0) {
			continue // 64 finished vertices: skip the whole word
		}
		base := wi << 6
		todo := ^w
		if hi-base < 64 {
			todo &= 1<<(hi-base) - 1
		}
		var found uint64
		var mass int64
		if g == nil {
			found, mass = e.pullRuns(base, todo)
		} else {
			for m := todo; m != 0; m &= m - 1 {
				v := base + bits.TrailingZeros64(m)
				alo, ahi := g.Offsets[v], g.Offsets[v+1]
				for p := alo; p < ahi; p++ {
					if u := g.Adj[p]; curBits.Get(u) && (filter == nil || filter(g.TS[p])) {
						res.Level[v] = level
						if parent != nil {
							parent[v] = u
						}
						found |= 1 << (v & 63)
						mass += ahi - alo
						break
					}
				}
			}
		}
		if found != 0 {
			words[wi] |= found
			atomic.OrUint64(&nextWords[wi], found)
			cnt += int64(bits.OnesCount64(found))
			edges += mass
		}
	}
	if cnt > 0 {
		atomic.AddInt64(&e.found, cnt)
		atomic.AddInt64(&e.foundEdges, edges)
	}
}

// pullRuns is bottomUpFastScan's parent search over the vertices todo
// of the word at base, each vertex's compressed block decoded a run at
// a time, so the search stops at its first parent. It returns the
// claimed vertices and their total degree.
func (e *exec) pullRuns(base int, todo uint64) (found uint64, mass int64) {
	res, c, parent := e.res, e.arcs.C, e.res.Parent
	level, filter, curBits := e.level, e.filter, e.curBits
	labels := filter != nil
	var run compress.Run
	for m := todo; m != 0; m &= m - 1 {
		v := uint32(base + bits.TrailingZeros64(m))
	runs:
		for adj, ts := c.Span(&run, v, labels); ; adj, ts = run.Next(labels) {
			ts = ts[:len(adj)]
			for i, u := range adj {
				if curBits.Get(u) && (filter == nil || filter(ts[i])) {
					res.Level[v] = level
					if parent != nil {
						parent[v] = u
					}
					found |= 1 << (v & 63)
					mass += run.Degree()
					break runs
				}
			}
			if run.Left() == 0 {
				break
			}
		}
	}
	return found, mass
}

// bottomUpVisitBody is the visitor pull inner loop. When an OnArc hook
// is present the scan cannot stop at the first frontier parent: it keeps
// scanning the full adjacency so every predecessor arc of the claimed
// vertex is reported (as its mirror arc), exactly matching the arcs the
// push direction would observe on a symmetric graph. Like the fast body
// it scans the chunk once per view, or once over a compressed graph.
func (e *exec) bottomUpVisitBody(lo, hi int) {
	if e.arcs.C != nil {
		e.bottomUpVisitScan(nil, 0, lo, hi)
		return
	}
	for vs, g := range e.arcs.Views {
		e.bottomUpVisitScan(g, vs, lo, hi)
	}
}

// bottomUpVisitScan is bottomUpVisitBody's pass over the vertices of
// [lo, hi) that view vs, g, holds, or over all of them when g is nil
// and the arcs are compressed.
func (e *exec) bottomUpVisitScan(g *csr.Graph, vs, lo, hi int) {
	res, c := e.res, e.arcs.C
	level, filter, arcF, onArc := e.level, e.filter, e.arc, e.onArc
	labels := filter != nil || arcF != nil || onArc != nil
	curBits, nextBits := e.curBits, e.nextBits
	words, parent := res.Visited.Words(), res.Parent
	var cnt, edges int64
	var run compress.Run
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := words[wi] | e.foreign(vs, wi)
		if w == ^uint64(0) {
			continue
		}
		base := wi << 6
		for m := ^w; m != 0; m &= m - 1 {
			v := base + bits.TrailingZeros64(m)
			if v >= hi {
				break
			}
			var adj, ts []uint32
			if g != nil {
				adj, ts = g.Neighbors(uint32(v))
			} else {
				adj, ts = c.Span(&run, uint32(v), labels)
			}
			deg := int64(len(adj)) + run.Left()
			claimed := false
		scan:
			for {
				ts = ts[:len(adj)]
				for i, u := range adj {
					if !curBits.Get(u) {
						continue
					}
					t := ts[i]
					if filter != nil && !filter(t) {
						continue
					}
					if arcF != nil && !arcF(u, uint32(v), t) {
						continue
					}
					if !claimed {
						claimed = true
						res.Level[v] = level
						if parent != nil {
							parent[v] = u
						}
						words[wi] |= 1 << (uint(v) & 63)
						nextBits.TrySet(uint32(v))
						cnt++
						edges += deg
						if onArc == nil {
							break scan
						}
						onArc(u, uint32(v), t, true)
						continue
					}
					onArc(u, uint32(v), t, false)
				}
				if run.Left() == 0 {
					break
				}
				adj, ts = run.Next(labels)
			}
		}
	}
	if cnt > 0 {
		atomic.AddInt64(&e.found, cnt)
		atomic.AddInt64(&e.foundEdges, edges)
	}
}
