package qserve

import (
	"math"

	"snapdyn/internal/centrality"
	"snapdyn/internal/cluster"
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
	// Tol is the tolerance the solve ran at: it stopped once the
	// largest per-vertex rank change in a round fell below Tol.
	// Iterations counts the power-iteration rounds it took.
	Tol        float64 `json:"tol"`
	Iterations int     `json:"iterations"`
	// MaxRank and SumRank summarize the score vector (damping 0.85,
	// uniform (1-d) teleport, dangling mass dropped — ranks are
	// unnormalized, each >= 1-d).
	MaxRank float64 `json:"maxRank"`
	SumRank float64 `json:"sumRank"`
	Epoch   uint64  `json:"epoch"`
}

// PageRank solves PageRank to the given tolerance (tol <= 0 picks
// DefaultPageRankTol) by serial power iteration (centrality.PageRank):
// each round pushes every vertex's damped rank share along its
// out-arcs, sources visited in original-id order, until no rank moves
// by tol or more in a round. Because every rank receives its additions
// in that order on every storage layout and on the shard fleet, the
// reply is bit-identical across all of them, like every other kind.
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
// tolerance is the query parameter (and the cache key).
const (
	// PageRankDamping is the fixed damping factor d; both engines
	// pass it to the one kernel.
	PageRankDamping = 0.85
	// DefaultPageRankTol is the tolerance when the query does not
	// name one.
	DefaultPageRankTol = 1e-6
	// minPageRankTol floors the tolerance so the solve always
	// terminates in a bounded number of rounds.
	minPageRankTol = 1e-12
)

// pagerankValue runs the PageRank kernel against the pinned view: a
// plain or reordered CSR as a one-view set, a compressed snapshot by
// streaming decode. The scores stay in s.pr.Rank, in layout space.
func (s *scratchSet) pagerankValue(v *snapmgr.View, a Args) qcache.Value {
	s.prView[0] = v.G
	arcs := centrality.Arcs{Views: s.prView[:], Perm: v.Perm, C: v.C}
	iters, maxRank, sum := s.pr.Run(arcs, PageRankDamping, PageRankTol(a))
	s.prView[0] = nil
	return qcache.Value{N1: int64(iters), F1: maxRank, F2: sum}
}
