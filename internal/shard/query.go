package shard

import (
	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/par"
	"snapdyn/internal/traversal"
)

// NotVisited marks an unreached vertex in a BFS level array.
const NotVisited = traversal.NotVisited

// Scratch is the reusable arena for queries over one fleet's pinned
// view set: the traversal engine's arena and result with the st and
// k-hop level-end cuts, the component labels, and the SSSP band loop
// with the delta chosen for the view set. Buffers are (re)sized on use
// for whatever shard count and vertex count the views present. A
// Scratch must not be shared by concurrent queries; the slices a query
// returns are overwritten by the next query on the same Scratch.
type Scratch struct {
	// BFS state. strategy is TopDown unless the views are symmetric: an
	// undirected executor's scratches run DirectionOpt.
	strategy traversal.Strategy
	trav     traversal.Scratch
	res      traversal.Result
	cuts     traversal.Cuts
	src      [1]uint32

	// Components state.
	comp []uint32

	// Stats reduction slots, one per shard.
	arcs []int64
	maxd []int64

	sp ssspState
}

// NewScratch returns an empty arena; buffers are sized on first use.
// Its traversals are push-only: only an executor that knows its fleet
// is undirected enables pull levels.
func NewScratch() *Scratch { return &Scratch{} }

// BFS runs the traversal engine from src over the pinned per-shard
// views (traversal.RunOver, one worker per shard), returning the
// scratch-owned level array plus the reached-vertex and level counts,
// identical to the single store's.
func (sc *Scratch) BFS(views []*csr.Graph, src uint32) ([]int32, int, int) {
	sc.run(views, src, traversal.Hooks{})
	return sc.res.Level, sc.res.Reached, sc.res.Levels
}

// STConnected reports whether target is reachable from src, and at how
// many hops, stopping after the first level that settles target.
func (sc *Scratch) STConnected(views []*csr.Graph, src, target uint32) (hops int32, ok bool) {
	sc.run(views, src, sc.cuts.ST(&sc.res, target))
	h := sc.res.Level[target]
	return h, h != NotVisited
}

// KHop counts the vertices within k hops of src (src included): the
// traversal stops after level k, so arcs beyond the horizon are never
// expanded, and the level array it leaves in the scratch matches the
// single store's k-hop query bit for bit.
func (sc *Scratch) KHop(views []*csr.Graph, src uint32, k int32) int {
	sc.run(views, src, sc.cuts.KHop(k))
	return sc.cuts.KHopReached()
}

// run traverses the view set from src under hooks.
func (sc *Scratch) run(views []*csr.Graph, src uint32, hooks traversal.Hooks) {
	sc.src[0] = src
	opt := traversal.Options{Workers: len(views), Strategy: sc.strategy, Hooks: hooks}
	traversal.RunOver(views, sc.src[:], opt, &sc.trav, &sc.res)
}

// Components labels weakly-connected components over the pinned views:
// cc's hook-and-compress over the view set, with one worker per shard.
// The labels converge to the component-minimum vertex id, identical to
// the single-shard kernel's. The label array is scratch-owned.
func (sc *Scratch) Components(views []*csr.Graph) []uint32 {
	sc.comp = cc.ComponentsOver(len(views), views, sc.comp)
	return sc.comp
}

// Stats summarizes a pinned view set by per-shard fan-out/reduce.
type Stats struct {
	Vertices  int
	Arcs      int64
	MaxDegree int64
}

// Stats fans a degree scan out across the shards and reduces arc count
// (sum) and max degree (max). Non-owned vertices have empty spans in
// every shard, so the per-shard maxima cover exactly the global graph.
func (sc *Scratch) Stats(views []*csr.Graph) Stats {
	p := len(views)
	if len(sc.arcs) != p {
		sc.arcs = make([]int64, p)
		sc.maxd = make([]int64, p)
	}
	par.Workers(p, func(s int) {
		sc.arcs[s] = views[s].NumEdges()
		sc.maxd[s] = views[s].MaxDegree()
	})
	st := Stats{Vertices: views[0].N}
	for s := 0; s < p; s++ {
		st.Arcs += sc.arcs[s]
		if sc.maxd[s] > st.MaxDegree {
			st.MaxDegree = sc.maxd[s]
		}
	}
	return st
}
