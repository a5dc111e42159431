package qserve

import (
	"math"
	"sync/atomic"

	"snapdyn/internal/cluster"
	"snapdyn/internal/edge"
	"snapdyn/internal/qcache"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/traversal"
)

// ClusteringReply summarizes one clustering-coefficient query.
type ClusteringReply struct {
	// Triangles is the global triangle count (each triangle once).
	Triangles int64 `json:"triangles"`
	// AvgLocal is the mean local clustering coefficient over vertices
	// with simple degree >= 2 (0 when no vertex qualifies); Counted is
	// how many qualified. Meaningful on undirected (symmetric) graphs.
	AvgLocal float64 `json:"avgLocal"`
	Counted  int     `json:"counted"`
	Epoch    uint64  `json:"epoch"`
}

// Clustering counts triangles and averages local clustering
// coefficients over the current snapshot. The enumeration arena is
// pooled (cluster.Scratch), so the steady state allocates nothing per
// request at the serving config; the aggregation runs in original-id
// order, so every storage layout (and the shard fleet) answers
// bit-identically — triangle counts are integers and the float average
// is summed in the same order everywhere.
func (e *Executor) Clustering() (ClusteringReply, error) {
	r, err := e.Query(SpecClustering, Args{})
	if err != nil {
		return ClusteringReply{}, err
	}
	return ClusteringReplyFrom(r), nil
}

// KHopReply summarizes one k-hop neighborhood query.
type KHopReply struct {
	Src uint32 `json:"src"`
	K   uint32 `json:"k"`
	// Reached counts vertices within k hops of src, src included.
	Reached int    `json:"reached"`
	Epoch   uint64 `json:"epoch"`
}

// KHop counts the vertices within k hops of src: a BFS whose pooled
// level-end hook stops the traversal after level k, so arcs beyond the
// horizon are never expanded. Hop counts are id-invariant; every
// layout answers bit-identically.
func (e *Executor) KHop(src, k uint32) (KHopReply, error) {
	a := Args{A: uint64(src), B: uint64(k)}
	r, err := e.Query(SpecKHop, a)
	if err != nil {
		return KHopReply{}, err
	}
	return KHopReplyFrom(a, r), nil
}

// PageRankReply summarizes one PageRank query.
type PageRankReply struct {
	// Tol is the residual tolerance the solve ran at; Iterations the
	// relaxation rounds it took.
	Tol        float64 `json:"tol"`
	Iterations int     `json:"iterations"`
	// MaxRank and SumRank summarize the score vector (damping 0.85,
	// uniform (1-d) teleport, dangling mass dropped — ranks are
	// unnormalized, each >= 1-d).
	MaxRank float64 `json:"maxRank"`
	SumRank float64 `json:"sumRank"`
	Epoch   uint64  `json:"epoch"`
}

// PageRank solves PageRank to the given residual tolerance (tol <= 0
// picks DefaultPageRankTol) as an iterative kernel on the traversal
// engine's label-correcting Relax mode: every vertex starts with
// residual 1-d, a frontier vertex pushes its harvested residual along
// its out-arcs, and a head vertex re-enters the frontier when its
// residual crosses tol — the push-based local iteration, converging
// without ever sweeping settled regions.
//
// Unlike the integer-valued kinds, PageRank is *not* bit-identical
// across layouts or the fleet: float accumulation order follows arc
// order, and retained sub-tolerance residuals depend on schedule, so
// answers agree only to within a tolerance-proportional error — the
// documented exception to the bit-identity guarantee.
func (e *Executor) PageRank(tol float64) (PageRankReply, error) {
	a := PageRankArgs(tol)
	r, err := e.Query(SpecPageRank, a)
	if err != nil {
		return PageRankReply{}, err
	}
	return PageRankReplyFrom(a, r), nil
}

// PageRankArgs builds the PageRank argument set from a tolerance,
// applying the default and the termination floor exactly like the HTTP
// decoder; PageRankTol recovers the tolerance. Both engines' typed
// methods and kernels share them so a tolerance means the same thing
// everywhere (including in the cache key, which is the tolerance's
// bits).
func PageRankArgs(tol float64) Args {
	if tol <= 0 {
		tol = DefaultPageRankTol
	}
	if tol < minPageRankTol {
		tol = minPageRankTol
	}
	return Args{A: math.Float64bits(tol)}
}

// PageRankTol recovers the tolerance from a PageRank argument set.
func PageRankTol(a Args) float64 { return math.Float64frombits(a.A) }

// clusteringValue runs the pooled triangle count against the pinned
// view. The per-vertex aggregation iterates original ids (translated
// into layout space), so the float average is summed in the same order
// under every layout.
func (s *scratchSet) clusteringValue(v *snapmgr.View, _ Args) qcache.Value {
	if s.clus == nil {
		s.clus = cluster.NewScratch()
	}
	if v.C != nil {
		s.clus.ComputeStream(s.cfg.Workers, v.C)
	} else {
		s.clus.ComputeCSR(s.cfg.Workers, v.G)
	}
	s.clusView = v
	total, counted, avg := s.clus.Aggregate(s.clusMap, v.NumVertices())
	s.clusView = nil
	return qcache.Value{N1: total, N2: counted, F1: avg}
}

// maxKHop caps the k parameter; any larger k behaves as unbounded
// (every graph's diameter is far below it) while keeping the level
// arithmetic safely inside int32.
const maxKHop = 1 << 30

// khopValue runs the depth-limited BFS against the pinned view.
func (s *scratchSet) khopValue(v *snapmgr.View, a Args) qcache.Value {
	s.src[0] = translate(v, uint32(a.A))
	s.khopK = int32(a.B)
	s.khopReached = 1 // the source itself
	opt := traversal.Options{
		Workers:  s.cfg.Workers,
		Strategy: s.cfg.strategy(),
		Hooks:    traversal.Hooks{OnLevelEnd: s.khopHook},
	}
	if v.C != nil {
		traversal.RunStream(v.C, s.src[:1], opt, s.trav, &s.res)
	} else {
		traversal.Run(v.G, s.src[:1], opt, s.trav, &s.res)
	}
	return qcache.Value{N1: int64(s.khopReached)}
}

// PageRank solve parameters. The damping factor is fixed — it is part
// of the kind's definition, like BFS's unit arc cost — while the
// residual tolerance is the query parameter (and the cache key).
const (
	// PageRankDamping is the fixed damping factor d; the sharded
	// fleet's power-iteration kernel shares it so both engines solve
	// the same linear system.
	PageRankDamping = 0.85
	// DefaultPageRankTol is the residual tolerance when the query does
	// not name one.
	DefaultPageRankTol = 1e-6
	// minPageRankTol floors the tolerance so the solve always
	// terminates in a bounded number of rounds.
	minPageRankTol = 1e-12
	// prMaxLevels hard-caps the relaxation rounds (residual mass
	// contracts geometrically with damping 0.85, so real solves finish
	// orders of magnitude below this).
	prMaxLevels = 1000
)

// prRelaxStep builds the pooled Relax hook for the PageRank push
// iteration. The traversal engine hands every arc of one frontier
// vertex to a single worker contiguously and deduplicates the
// frontier, so the first arc out of u this round can harvest u's
// residual without atomics (the claim tag is per-round); pushes into
// head vertices race across workers and go through the CAS-loop float
// add. A head enters the next frontier exactly when its residual
// crosses the tolerance from below.
func prRelaxStep(s *scratchSet) func(u, v, t uint32) bool {
	return func(u, v, t uint32) bool {
		if s.prClaim[u] != s.prLevel {
			s.prClaim[u] = s.prLevel
			ru := math.Float64frombits(atomic.SwapUint64(&s.prResid[u], 0))
			s.prRank[u] += ru
			var d int64
			if s.prView.C != nil {
				d = s.prView.C.Degree(edge.ID(u))
			} else {
				d = s.prView.G.Degree(edge.ID(u))
			}
			s.prPush[u] = PageRankDamping * ru / float64(d)
		}
		p := s.prPush[u]
		nv := atomicAddFloat(&s.prResid[v], p)
		return nv >= s.prTol && nv-p < s.prTol
	}
}

// pagerankValue runs the push-residual PageRank solve against the
// pinned view. All state is pooled, the scores stay in s.prRank; at
// Workers=1 the steady state allocates nothing per request.
func (s *scratchSet) pagerankValue(v *snapmgr.View, a Args) qcache.Value {
	n := v.NumVertices()
	s.prRank = resizeF64(s.prRank, n)
	s.prResid = resizeU64(s.prResid, n)
	s.prPush = resizeF64(s.prPush, n)
	s.prClaim = resizeI32(s.prClaim, n)
	s.prSrcs = resizeU32(s.prSrcs, n)
	seed := math.Float64bits(1 - PageRankDamping)
	for i := 0; i < n; i++ {
		s.prRank[i] = 0
		s.prResid[i] = seed
		s.prClaim[i] = 0
		s.prSrcs[i] = uint32(i)
	}
	s.prLevel = 1
	s.prTol = PageRankTol(a)
	s.prView = v
	opt := traversal.Options{
		Workers: s.cfg.Workers,
		Hooks:   traversal.Hooks{Relax: s.prRelax, OnLevelEnd: s.prLevelEnd},
	}
	if v.C != nil {
		traversal.RunStream(v.C, s.prSrcs, opt, s.trav, &s.res)
	} else {
		traversal.Run(v.G, s.prSrcs, opt, s.trav, &s.res)
	}
	s.prView = nil
	// Fold retained sub-tolerance residual into each vertex's own rank:
	// exact for vertices nothing points at, and a strictly better
	// estimate elsewhere.
	var maxRank, sum float64
	for i := 0; i < n; i++ {
		r := s.prRank[i] + math.Float64frombits(s.prResid[i])
		s.prRank[i] = r
		sum += r
		if r > maxRank {
			maxRank = r
		}
	}
	return qcache.Value{N1: int64(s.res.Levels), F1: maxRank, F2: sum}
}

// atomicAddFloat adds x to the float64 stored as bits at p, returning
// the new value.
func atomicAddFloat(p *uint64, x float64) float64 {
	for {
		old := atomic.LoadUint64(p)
		nf := math.Float64frombits(old) + x
		if atomic.CompareAndSwapUint64(p, old, math.Float64bits(nf)) {
			return nf
		}
	}
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
