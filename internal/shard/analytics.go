package shard

import (
	"math"
	"sync/atomic"

	"snapdyn/internal/cluster"
	"snapdyn/internal/csr"
	"snapdyn/internal/par"
	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
)

// clusteringValue runs the pooled triangle count over the pinned view
// set. Ownership makes every vertex's full adjacency local to one
// shard, so the per-vertex triangle counts are exactly the
// single-snapshot kernel's; the aggregation visits vertices in
// original-id order (shard views are unpermuted, so identity order),
// which is the same summation order the single-shard engine uses —
// the float average is bit-identical across engines.
func (s *scratchSet) clusteringValue(views []*csr.Graph, _ qserve.Args) qcache.Value {
	if s.clus == nil {
		s.clus = cluster.NewScratch()
	}
	s.clus.ComputeViews(len(views), views)
	total, counted, avg := s.clus.Aggregate(identityID, views[0].N)
	return qcache.Value{N1: total, N2: counted, F1: avg}
}

func identityID(u uint32) uint32 { return u }

// khopValue runs the depth-limited scatter-gather BFS.
func (s *scratchSet) khopValue(views []*csr.Graph, a qserve.Args) qcache.Value {
	return qcache.Value{N1: int64(s.sc.KHop(views, uint32(a.A), int32(a.B)))}
}

// prFleetMaxIters hard-caps the power-iteration rounds, mirroring the
// single-shard solve's round cap.
const prFleetMaxIters = 1000

// pagerankValue solves PageRank over the pinned view set by sharded
// Jacobi power iteration: each round, every shard pushes its owned
// vertices' damped rank shares along their local arcs into the shared
// next iterate (CAS float adds — heads live on other shards), then the
// iterates swap and the round's max per-vertex delta decides
// convergence. Same fixed point as the single-shard push-residual
// solve — r = (1-d)·1 + d·AᵀD⁻¹r with dangling mass dropped — so the
// two engines agree to within a tolerance-proportional error (the
// documented PageRank exception to bit-identity; iteration counts are
// not comparable across engines either).
func (s *scratchSet) pagerankValue(views []*csr.Graph, a qserve.Args) qcache.Value {
	tol := qserve.PageRankTol(a)
	p := len(views)
	n := views[0].N
	if cap(s.prRank) < n {
		s.prRank = make([]float64, n)
		s.prNext = make([]uint64, n)
	}
	s.prRank = s.prRank[:n]
	s.prNext = s.prNext[:n]
	if len(s.prDelta) != p {
		s.prDelta = make([]float64, p)
	}
	rank, next, delta := s.prRank, s.prNext, s.prDelta
	const d = qserve.PageRankDamping
	teleport := 1 - d
	seed := math.Float64bits(teleport)
	par.ForBlock(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rank[i] = teleport
		}
	})
	iters := 0
	for iters < prFleetMaxIters {
		iters++
		par.ForBlock(p, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				next[i] = seed
			}
		})
		par.Workers(p, func(sh int) {
			g := views[sh]
			for u := sh; u < n; u += p {
				lo, hi := g.Offsets[u], g.Offsets[u+1]
				if lo == hi {
					continue
				}
				push := d * rank[u] / float64(hi-lo)
				for a := lo; a < hi; a++ {
					addFloatBits(&next[g.Adj[a]], push)
				}
			}
		})
		par.Workers(p, func(sh int) {
			lo, hi := sh*n/p, (sh+1)*n/p
			var dmax float64
			for i := lo; i < hi; i++ {
				nv := math.Float64frombits(next[i])
				if dd := math.Abs(nv - rank[i]); dd > dmax {
					dmax = dd
				}
				rank[i] = nv
			}
			delta[sh] = dmax
		})
		var dmax float64
		for _, v := range delta {
			if v > dmax {
				dmax = v
			}
		}
		if dmax < tol {
			break
		}
	}
	var maxRank, sum float64
	for i := 0; i < n; i++ {
		r := rank[i]
		sum += r
		if r > maxRank {
			maxRank = r
		}
	}
	return qcache.Value{N1: int64(iters), F1: maxRank, F2: sum}
}

// addFloatBits adds x to the float64 stored as bits at p (CAS loop) —
// the cross-shard accumulation primitive.
func addFloatBits(p *uint64, x float64) {
	for {
		old := atomic.LoadUint64(p)
		nf := math.Float64frombits(old) + x
		if atomic.CompareAndSwapUint64(p, old, math.Float64bits(nf)) {
			return
		}
	}
}
