package shard

import (
	"snapdyn/internal/csr"
	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
)

// fleetKernel executes one registered query kind over a pinned
// per-shard view set; keep=true copies payload slices out of pooled
// scratch for the cache.
type fleetKernel func(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error)

// fleetKernels is the fleet's kernel table, indexed by qserve's dense
// spec id. A nil entry means the kind is not implemented on the
// scatter-gather engine (Query answers ErrUnsupported — sampled
// betweenness, for instance, needs a resident global CSR no shard
// has). qserve's registry init runs before this package's (shard
// imports qserve), so the spec ids are final here.
var fleetKernels []fleetKernel

func init() {
	fleetKernels = make([]fleetKernel, qserve.NumSpecs())
	set := func(sp *qserve.Spec, k fleetKernel) { fleetKernels[sp.ID()] = k }
	set(qserve.SpecBFS, func(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error) {
		return e.bfsValue(views, uint32(a.A), keep), nil
	})
	set(qserve.SpecSSSP, func(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error) {
		return e.ssspValue(views, uint32(a.A), int64(a.B), keep), nil
	})
	set(qserve.SpecConnected, runFleetConnected)
	set(qserve.SpecComponents, func(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error) {
		return e.componentsValue(views, keep), nil
	})
	set(qserve.SpecClustering, func(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error) {
		return e.clusteringValue(views, keep), nil
	})
	set(qserve.SpecKHop, func(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error) {
		return e.khopValue(views, uint32(a.A), int32(a.B), keep), nil
	})
	set(qserve.SpecPageRank, func(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error) {
		return e.pagerankValue(views, qserve.PageRankTol(a), keep), nil
	})
}

// Query runs one registered kind against the pinned per-shard snapshot
// set — the fleet mirror of the single-snapshot executor's generic
// path, with identical admission, validation, quick-answer, and
// caching flow. The cache generation is keyed by the whole pinned view
// set, so a refresh on any shard retires it.
func (e *Executor) Query(sp *qserve.Spec, a qserve.Args) (qserve.Result, error) {
	p, epoch, gen, err := e.checkout()
	if err != nil {
		return qserve.Result{}, err
	}
	defer e.release(p)
	if err := sp.Validate(a, e.fleet.NumVertices()); err != nil {
		return qserve.Result{}, err
	}
	res := qserve.Result{Epoch: epoch}
	if val, ok := sp.Quick(a); ok {
		res.Val = val
		return res, nil
	}
	run := fleetKernels[sp.ID()]
	if run == nil {
		return qserve.Result{}, qserve.ErrUnsupported
	}
	k, cacheable := sp.CacheKey(a)
	if !cacheable {
		if a.Live {
			res.Cache = qserve.CacheLive
		}
		val, err := run(e, p.views, a, false)
		if err != nil {
			return qserve.Result{}, err
		}
		res.Val = val
		return res, nil
	}
	if val, ok := gen.Lookup(k); ok {
		res.Val, res.Cache = val, qserve.CacheHit
		return res, nil
	}
	if gen == nil {
		val, err := run(e, p.views, a, false)
		if err != nil {
			return qserve.Result{}, err
		}
		res.Val = val
		return res, nil
	}
	val, err := gen.Do(k, func() (qcache.Value, error) {
		return run(e, p.views, a, true)
	})
	if err != nil {
		return qserve.Result{}, err
	}
	res.Val, res.Cache = val, qserve.CacheMiss
	return res, nil
}

// runFleetConnected answers st-connectivity: from the live forest when
// a.Live (no snapshot involved, hop count unavailable), else by the
// early-exiting scatter-gather traversal.
func runFleetConnected(e *Executor, views []*csr.Graph, a qserve.Args, keep bool) (qcache.Value, error) {
	if a.Live {
		l := e.live
		if l == nil {
			return qcache.Value{}, qserve.ErrUnsupported
		}
		return qcache.Value{Flag: l.Connected(uint32(a.A), uint32(a.B)), N1: -1}, nil
	}
	return e.connValue(views, uint32(a.A), uint32(a.B)), nil
}

// --- typed convenience methods, generated from the registry exactly
// like the single-shard executor's ---

// BFS runs a scatter-gather breadth-first search from src.
func (e *Executor) BFS(src uint32) (qserve.BFSReply, error) {
	a := qserve.Args{A: uint64(src)}
	r, err := e.Query(qserve.SpecBFS, a)
	if err != nil {
		return qserve.BFSReply{}, err
	}
	return qserve.BFSReplyFrom(a, r), nil
}

// SSSP runs sharded delta-stepping from src with arc time labels as
// weights, like the single-shard engine (delta <= 0 derives the
// global heuristic width).
func (e *Executor) SSSP(src uint32, delta int64) (qserve.SSSPReply, error) {
	a := qserve.Args{A: uint64(src), B: uint64(delta)}
	r, err := e.Query(qserve.SpecSSSP, a)
	if err != nil {
		return qserve.SSSPReply{}, err
	}
	return qserve.SSSPReplyFrom(a, r), nil
}

// Connected answers st-connectivity with an early-exiting
// scatter-gather traversal from u.
func (e *Executor) Connected(u, v uint32) (qserve.ConnReply, error) {
	a := qserve.Args{A: uint64(u), B: uint64(v)}
	r, err := e.Query(qserve.SpecConnected, a)
	if err != nil {
		return qserve.ConnReply{}, err
	}
	return qserve.ConnReplyFrom(a, r), nil
}

// ConnectedLive answers st-connectivity from the fleet's live forest
// (EnableLive), reflecting every acknowledged ingest without waiting
// for shard refreshes. Hops is -1: the forest proves connectivity, not
// distance.
func (e *Executor) ConnectedLive(u, v uint32) (qserve.ConnReply, error) {
	a := qserve.Args{A: uint64(u), B: uint64(v), Live: true}
	r, err := e.Query(qserve.SpecConnected, a)
	if err != nil {
		return qserve.ConnReply{}, err
	}
	return qserve.ConnReplyFrom(a, r), nil
}

// Components labels weakly-connected components by cross-shard label
// merge; the label array and census are pool-owned.
func (e *Executor) Components() (qserve.ComponentsReply, error) {
	a := qserve.Args{}
	r, err := e.Query(qserve.SpecComponents, a)
	if err != nil {
		return qserve.ComponentsReply{}, err
	}
	return qserve.ComponentsReplyFrom(r), nil
}

// Clustering counts triangles and averages local clustering
// coefficients over the pinned view set, bit-identical to the
// single-shard engine (the aggregation order is original-id order on
// both sides).
func (e *Executor) Clustering() (qserve.ClusteringReply, error) {
	a := qserve.Args{}
	r, err := e.Query(qserve.SpecClustering, a)
	if err != nil {
		return qserve.ClusteringReply{}, err
	}
	return qserve.ClusteringReplyFrom(r), nil
}

// KHop counts the vertices within k hops of src.
func (e *Executor) KHop(src, k uint32) (qserve.KHopReply, error) {
	a := qserve.Args{A: uint64(src), B: uint64(k)}
	r, err := e.Query(qserve.SpecKHop, a)
	if err != nil {
		return qserve.KHopReply{}, err
	}
	return qserve.KHopReplyFrom(a, r), nil
}

// PageRank solves PageRank to the given residual tolerance (tol <= 0
// picks the default) by sharded power iteration — same fixed point as
// the single-shard push solve, agreeing to within a
// tolerance-proportional error (the documented PageRank exception to
// bit-identity).
func (e *Executor) PageRank(tol float64) (qserve.PageRankReply, error) {
	a := qserve.PageRankArgs(tol)
	r, err := e.Query(qserve.SpecPageRank, a)
	if err != nil {
		return qserve.PageRankReply{}, err
	}
	return qserve.PageRankReplyFrom(a, r), nil
}
