package shard

import (
	"snapdyn/internal/cc"
	"snapdyn/internal/centrality"
	"snapdyn/internal/cluster"
	"snapdyn/internal/csr"
	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
	"snapdyn/internal/sssp"
	"snapdyn/internal/traversal"
)

// Executor is the qserve executor over a Fleet: the one query flow
// (admission, validation, quick answers, result cache, live index,
// ingest) with every query running the scatter-gather kernels over a
// pinned per-shard snapshot set. It plugs into qserve.NewServer
// unchanged — one HTTP surface, either backend.
//
// With Config.CacheBytes > 0 the cache identity is the whole pinned
// view set — one *csr.Graph per shard, compared elementwise — so a
// refresh on any one shard retires the generation, while no-op
// refreshes (csr.Refresh republishing the identical graph pointer
// shard-locally) keep it alive.
type Executor struct {
	*qserve.Executor
	b *backend
}

var _ qserve.Engine = (*Executor)(nil)

// NewExecutor returns a fleet executor. cfg.Workers is ignored: BFS,
// st-connectivity, k-hop and components run one worker per shard, SSSP
// and PageRank run serially, and the executor's admission slots
// (cfg.MaxConcurrent) run queries side by side. The traversals take
// their direction from cfg.Strategy(), as the single store's do.
func NewExecutor(f *Fleet, cfg qserve.Config) *Executor {
	cfg = cfg.WithDefaults()
	b := &backend{
		Fleet:    f,
		strategy: cfg.Strategy(),
		free:     make(chan *scratchSet, cfg.MaxConcurrent),
		pins:     make(chan *pinSet, cfg.MaxConcurrent),
	}
	return &Executor{Executor: qserve.NewExecutor(b, cfg), b: b}
}

// Fleet returns the shard fleet the executor serves from.
func (e *Executor) Fleet() *Fleet { return e.b.Fleet }

// backend is the qserve.Backend over a Fleet. The embedded Fleet
// supplies NumVertices, IngestEpoch (the fleet sum-epoch ack),
// WaitEpoch (the coarse sum-epoch wait) and Metrics; the pools are
// per executor and slot-capacity sized.
type backend struct {
	*Fleet
	strategy traversal.Strategy
	free     chan *scratchSet
	pins     chan *pinSet
}

// scratchSet is one pooled unit of sharded kernel state: the
// scatter-gather arena, the component census buffer, the
// triangle-counting arena, and the PageRank state.
// Only cache misses check one out; hits answer from the generation
// alone.
type scratchSet struct {
	sc    *Scratch
	sizes []int

	// clus is the triangle-counting arena, lazily built on the first
	// clustering query.
	clus *cluster.Scratch

	// pr is the PageRank kernel's state.
	pr centrality.PageRank
}

// pinSet is the per-query snapshot pin: one view per shard, plus the
// boxed identity buffer the cache generation is matched with. Pooled
// separately from the kernel scratch so the cache-hit path reuses a
// warm pin without touching the arena (and without allocating — both
// slices reach steady-state capacity after the first use).
type pinSet struct {
	views []*csr.Graph
	ids   []any
}

// Pin pins one snapshot per shard and, when caching is on, resolves the
// pinned set's cache generation. The fleet epoch is read before pinning
// so the reported epoch is a lower bound on the served snapshots'
// freshness.
func (b *backend) Pin(c *qcache.Cache) (any, uint64, *qcache.Gen) {
	var p *pinSet
	select {
	case p = <-b.pins:
	default:
		p = &pinSet{}
	}
	epoch := b.Epoch()
	p.views = b.View(p.views)
	if c == nil {
		return p, epoch, nil
	}
	p.ids = p.ids[:0]
	for _, g := range p.views {
		p.ids = append(p.ids, g)
	}
	return p, epoch, c.ForViews(p.ids, epoch)
}

func (b *backend) Unpin(pin any) { b.pins <- pin.(*pinSet) }

// Run checks a kernel arena out of the pool for one kernel; the caller
// holds an admission slot, so at most MaxConcurrent arenas exist.
func (b *backend) Run(sp *qserve.Spec, pin any, a qserve.Args) qcache.Value {
	var s *scratchSet
	select {
	case s = <-b.free:
	default:
		s = &scratchSet{sc: &Scratch{strategy: b.strategy}}
	}
	defer func() { b.free <- s }()
	return fleetKernels[sp.ID()](s, pin.(*pinSet).views, a)
}

// fleetKernel executes one kind over a pinned per-shard view set and
// returns the reply aggregates; per-vertex output stays in the arena.
type fleetKernel func(s *scratchSet, views []*csr.Graph, a qserve.Args) qcache.Value

// fleetKernels is the fleet's kernel table, indexed by qserve's dense
// spec id. qserve's registry init runs before this package's (shard
// imports qserve), so the spec ids are final here.
var fleetKernels []fleetKernel

func init() {
	fleetKernels = make([]fleetKernel, qserve.NumSpecs())
	for sp, k := range map[*qserve.Spec]fleetKernel{
		qserve.SpecBFS:        (*scratchSet).bfsValue,
		qserve.SpecSSSP:       (*scratchSet).ssspValue,
		qserve.SpecConnected:  (*scratchSet).connValue,
		qserve.SpecComponents: (*scratchSet).componentsValue,
		qserve.SpecClustering: (*scratchSet).clusteringValue,
		qserve.SpecKHop:       (*scratchSet).khopValue,
		qserve.SpecPageRank:   (*scratchSet).pagerankValue,
	} {
		fleetKernels[sp.ID()] = k
	}
}

// bfsValue runs a breadth-first search from a.A over the pinned views.
func (s *scratchSet) bfsValue(views []*csr.Graph, a qserve.Args) qcache.Value {
	_, reached, depth := s.sc.BFS(views, uint32(a.A))
	return qcache.Value{N1: int64(reached), N2: int64(depth)}
}

// ssspValue runs sharded delta-stepping from a.A with arc time labels as
// weights, like the single store (delta <= 0 derives the global
// heuristic width).
func (s *scratchSet) ssspValue(views []*csr.Graph, a qserve.Args) qcache.Value {
	dist := s.sc.SSSP(views, uint32(a.A), sssp.LabelWeights, int64(a.B))
	var val qcache.Value
	for _, d := range dist {
		if d != sssp.Inf {
			val.N1++
			if d > val.N2 {
				val.N2 = d
			}
		}
	}
	return val
}

// connValue answers st-connectivity with an early-exiting traversal
// from a.A over the pinned views.
func (s *scratchSet) connValue(views []*csr.Graph, a qserve.Args) qcache.Value {
	if hops, ok := s.sc.STConnected(views, uint32(a.A), uint32(a.B)); ok {
		return qcache.Value{Flag: true, N1: int64(hops)}
	}
	return qcache.Value{N1: -1}
}

// componentsValue labels weakly-connected components over the pinned
// views; the label array and census are pool-owned.
func (s *scratchSet) componentsValue(views []*csr.Graph, _ qserve.Args) qcache.Value {
	comp := s.sc.Components(views)
	s.sizes = cc.CensusInto(1, comp, s.sizes)
	_, size := cc.LargestOf(1, s.sizes)
	return qcache.Value{N1: int64(cc.Count(comp)), N2: int64(size)}
}

// Stats fans out over the shards; the executor serves it outside
// admission so the service stays observable under overload.
func (b *backend) Stats() qserve.StatsReply {
	epoch := b.Epoch()
	views := b.View(nil)
	var sc Scratch
	st := sc.Stats(views)
	// Shards publish plain CSR snapshots; the fleet footprint is their sum.
	var bytes int64
	for _, g := range views {
		bytes += g.SizeBytes()
	}
	return qserve.StatsReply{
		Vertices:  st.Vertices,
		Arcs:      st.Arcs,
		MaxDegree: st.MaxDegree,
		Epoch:     epoch,
		Staleness: b.Staleness(),
		SizeBytes: bytes,
		Format:    "plain",
	}
}
