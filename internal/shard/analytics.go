package shard

import (
	"snapdyn/internal/cluster"
	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
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

// khopValue runs the depth-limited BFS over the pinned views.
func (s *scratchSet) khopValue(views []*csr.Graph, a qserve.Args) qcache.Value {
	return qcache.Value{N1: int64(s.sc.KHop(views, uint32(a.A), int32(a.B)))}
}

// pagerankValue runs the PageRank kernel over the pinned view set:
// vertex u's arcs are its span in views[u%P], visited in original-id
// order, so the fleet answers bit-identically to the single store at
// every shard count. Like SSSP it runs serially; a served fleet's
// parallelism comes from its admission slots.
func (s *scratchSet) pagerankValue(views []*csr.Graph, a qserve.Args) qcache.Value {
	iters, maxRank, sum := s.pr.Run(compress.Arcs{Views: views}, nil, qserve.PageRankDamping, qserve.PageRankTol(a))
	return qcache.Value{N1: int64(iters), F1: maxRank, F2: sum}
}
