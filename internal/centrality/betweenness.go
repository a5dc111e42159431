// Package centrality implements betweenness centrality following Brandes'
// algorithm, parallelized as in the paper's prior work (Bader & Madduri,
// ICPP 2006) and extended with the paper's temporal-path formulation:
// the graph traversal stage is modified to follow only temporal paths —
// sequences of edges with strictly increasing time labels — "while the
// dependency-accumulation stage remains unchanged."
//
// The traversal stage is not hand-rolled here: every index (betweenness,
// stress, closeness) drives the shared visitor-hook engine in
// internal/traversal. The Brandes shortest-path DAG (visit order, path
// counts, predecessor lists, temporal arrival labels) is assembled by an
// OnArc hook over a per-worker reused Scratch, so a steady-state
// traversal allocates nothing, and the engine's direction-optimizing
// strategy (bottom-up pull on saturated levels) applies to centrality
// exactly as it does to plain BFS.
//
// The exact algorithm traverses from every vertex; the approximate
// variant of Figure 11 traverses from a random sample of sources and
// extrapolates the scores.
//
// PageRank is not a traversal: it is the serving layer's one serial
// power-iteration kernel (pagerank.go), which both query backends run
// over every snapshot layout.
package centrality

import (
	"sync/atomic"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/traversal"
	"snapdyn/internal/xrand"
)

// Options configures a betweenness computation.
type Options struct {
	// Temporal, when set, restricts traversal to temporal shortest
	// paths: an edge (v, w, t) extends a path ending at v only if t is
	// strictly greater than the label of the edge that reached v (any
	// edge may leave the source).
	Temporal bool
	// Sources, when non-nil, lists the traversal roots (approximate
	// betweenness); nil means every vertex (exact).
	Sources []edge.ID
	// Normalize scales scores by n/|Sources| to extrapolate sampled
	// scores to the full graph, as in the paper's approximate variant.
	Normalize bool
	// Strategy selects the traversal engine per source: the classic
	// top-down push (the zero value) or the direction-optimizing
	// push/pull hybrid, which requires a symmetric graph (and symmetric
	// time labels when Temporal is set) exactly as it does for BFS.
	Strategy traversal.Strategy
	// Progress, when set, is called after each completed source
	// traversal with the number of sources finished so far and the
	// total — the polling hook for offline jobs. It is called from
	// worker goroutines and must be safe for concurrent use.
	Progress func(done, total int)
}

// SampleSources draws k distinct random vertices of g, preferring
// vertices with degree > 0 (traversals from isolated vertices contribute
// nothing): isolated vertices are drawn only when fewer than k
// non-isolated ones exist. A partial Fisher-Yates shuffle over the
// degree-filtered candidate pool makes the draw deterministic for a
// given seed and O(n) worst case.
func SampleSources(g *csr.Graph, k int, seed uint64) []edge.ID {
	return SampleSourcesBy(g.N, g.Degree, k, seed)
}

// SampleSourcesBy is SampleSources over n vertices whose degrees the
// degree function reports: a snapshot stored under relabeled ids
// samples by its original ids, so the draw depends only on the graph
// and the seed.
func SampleSourcesBy(n int, degree func(edge.ID) int64, k int, seed uint64) []edge.ID {
	r := xrand.New(seed)
	if k > n {
		k = n
	}
	out := make([]edge.ID, 0, k)
	if k <= 0 {
		return out
	}
	// Candidate pool: non-isolated vertices, in id order.
	pool := make([]edge.ID, 0, n)
	for v := 0; v < n; v++ {
		if degree(edge.ID(v)) > 0 {
			pool = append(pool, edge.ID(v))
		}
	}
	if len(pool) < k {
		// Not enough non-isolated vertices: take them all and fill the
		// remainder from the isolated ones, also uniformly.
		out = append(out, pool...)
		pool = pool[len(pool):]
		for v := 0; v < n; v++ {
			if degree(edge.ID(v)) == 0 {
				pool = append(pool, edge.ID(v))
			}
		}
	}
	// Partial Fisher-Yates: the first need swaps of a full shuffle
	// produce a uniform sample without touching the pool's tail.
	need := k - len(out)
	for i := 0; i < need; i++ {
		j := i + r.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return append(out, pool[:need]...)
}

// Betweenness computes (approximate) betweenness centrality scores. The
// source set is partitioned among workers; each worker accumulates into a
// private score vector, reduced at the end — the coarse-grained
// parallelization that scales best when |Sources| >= workers. Each
// per-source traversal runs the shared engine with one worker, so hooks
// execute serially and in level order.
func Betweenness(workers int, g *csr.Graph, opt Options) []float64 {
	if workers <= 0 {
		workers = par.MaxWorkers()
	}
	sources := opt.Sources
	if sources == nil {
		sources = make([]edge.ID, g.N)
		for i := range sources {
			sources[i] = edge.ID(i)
		}
	}
	if len(sources) == 0 {
		return make([]float64, g.N)
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	partial := make([][]float64, workers)
	var done atomic.Int64
	par.Workers(workers, func(id int) {
		bc := make([]float64, g.N)
		st := newBrandesState(g.N)
		for i := id; i < len(sources); i += workers {
			st.run(g, sources[i], opt, bc)
			if opt.Progress != nil {
				opt.Progress(int(done.Add(1)), len(sources))
			}
		}
		partial[id] = bc
	})
	out := partial[0]
	for w := 1; w < workers; w++ {
		p := partial[w]
		par.ForBlock(workers, g.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] += p[i]
			}
		})
	}
	if opt.Normalize && len(sources) < g.N {
		scale := float64(g.N) / float64(len(sources))
		for i := range out {
			out[i] *= scale
		}
	}
	return out
}

// brandesState holds per-worker scratch reused across sources: the
// Brandes DAG arrays, the engine arena, and the hook closures, all
// allocated once per worker so steady-state traversals are
// allocation-free.
type brandesState struct {
	sigma    []float64
	delta    []float64
	arrive   []uint32 // temporal: label of the edge that reached v
	order    []uint32 // visit order: source first, then level-sorted
	preds    [][]uint32
	temporal bool
	srcID    uint32
	src      [1]uint32
	scratch  *traversal.Scratch
	res      traversal.Result
	onArc    func(u, v uint32, t uint32, claimed bool)
	gate     traversal.ArcFilter
}

func newBrandesState(n int) *brandesState {
	st := &brandesState{
		sigma:   make([]float64, n),
		delta:   make([]float64, n),
		arrive:  make([]uint32, n),
		order:   make([]uint32, 0, n),
		preds:   make([][]uint32, n),
		scratch: traversal.NewScratch(),
	}
	// The Brandes traversal phase as engine hooks: the claiming arc
	// seeds a vertex's path count, arrival label, and predecessor list;
	// every further same-level arc is a shortest-path DAG tie that adds
	// its tail's path count and predecessor.
	st.onArc = func(u, v uint32, t uint32, claimed bool) {
		if claimed {
			st.order = append(st.order, v)
			st.arrive[v] = t
			st.sigma[v] = st.sigma[u]
			st.preds[v] = append(st.preds[v], u)
			return
		}
		st.sigma[v] += st.sigma[u]
		st.preds[v] = append(st.preds[v], u)
		// Keep the smallest arrival label among shortest temporal
		// paths: it admits the most continuations.
		if st.temporal && t < st.arrive[v] {
			st.arrive[v] = t
		}
	}
	// The temporal-path gate: an edge extends a path ending at u only
	// if its label strictly exceeds the label that reached u (any edge
	// may leave the source).
	st.gate = func(u, _ uint32, t uint32) bool {
		return u == st.srcID || t > st.arrive[u]
	}
	return st
}

// traverse runs the Brandes BFS phase from s on the shared engine,
// leaving the shortest-path DAG (order, sigma, preds, arrive) in st.
// Only state touched by the previous source is cleared, so per-source
// setup is O(previously reached), not O(n).
func (st *brandesState) traverse(g *csr.Graph, s edge.ID, opt Options) {
	for _, v := range st.order {
		st.sigma[v] = 0
		st.delta[v] = 0
		st.preds[v] = st.preds[v][:0]
	}
	st.order = st.order[:0]
	st.temporal = opt.Temporal
	st.srcID = uint32(s)
	st.sigma[s] = 1
	st.arrive[s] = 0
	st.order = append(st.order, uint32(s))
	topt := traversal.Options{
		Workers:  1,
		Strategy: opt.Strategy,
		Hooks:    traversal.Hooks{OnArc: st.onArc},
	}
	if opt.Temporal {
		topt.Arc = st.gate
	}
	st.src[0] = uint32(s)
	traversal.Run(g, st.src[:], topt, st.scratch, &st.res)
}

// run performs one Brandes traversal from s, accumulating dependencies
// into bc.
func (st *brandesState) run(g *csr.Graph, s edge.ID, opt Options, bc []float64) {
	st.traverse(g, s, opt)
	// Dependency accumulation in reverse visit order (unchanged from the
	// static algorithm, as the paper notes).
	for i := len(st.order) - 1; i >= 0; i-- {
		w := st.order[i]
		coeff := (1 + st.delta[w]) / st.sigma[w]
		for _, v := range st.preds[w] {
			st.delta[v] += st.sigma[v] * coeff
		}
		if w != uint32(s) {
			bc[w] += st.delta[w]
		}
	}
}
