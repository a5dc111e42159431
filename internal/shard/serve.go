package shard

import (
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/cluster"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
)

// Executor serves the qserve.Engine query surface from a Fleet: the
// same admission policy (queue-or-shed) and pooled per-query scratch
// as the single-shard executor, with every query running the
// scatter-gather kernels over a pinned per-shard snapshot set. It
// plugs into qserve.NewServer unchanged — one HTTP surface, either
// engine.
//
// With Config.CacheBytes > 0 the executor carries the same
// snapshot-identity result cache as the single-shard engine. The cache
// identity is the whole pinned view set — one *csr.Graph per shard,
// compared elementwise — so a refresh on any one shard retires the
// generation, while no-op refreshes (csr.Refresh republishing the
// identical graph pointer shard-locally) keep it alive.
type Executor struct {
	fleet *Fleet
	cfg   qserve.Config
	adm   *qserve.Admission
	free  chan *scratchSet
	pins  chan *pinSet
	cache *qcache.Cache // nil when Config.CacheBytes <= 0

	// ingest, when set (SetIngest), replaces the direct scatter apply
	// with a durable commit path (DurableFleet.Ingest).
	ingest func(batch []edge.Update) (uint64, error)

	// live, when set (EnableLive), is the between-refresh connectivity
	// index: one dynamic forest over the whole fleet, fed by Ingest.
	live *qserve.Live
}

var _ qserve.Engine = (*Executor)(nil)

// scratchSet is one pooled unit of sharded kernel state: the
// scatter-gather arena, the component census buffer, the
// triangle-counting arena, and the power-iteration PageRank state.
// Only cache misses check one out; hits answer from the generation
// alone.
type scratchSet struct {
	sc    *Scratch
	sizes []int

	// clus is the triangle-counting arena, lazily built on the first
	// clustering query.
	clus *cluster.Scratch

	// PageRank power-iteration state (see analytics.go): the rank
	// vector, the next iterate as float bits for cross-shard CAS
	// accumulation, and the per-shard convergence-delta slots.
	prRank  []float64
	prNext  []uint64
	prDelta []float64
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

// NewExecutor returns a fleet executor. cfg.Workers is ignored: a
// scatter-gather query's parallelism is the shard fan-out.
func NewExecutor(f *Fleet, cfg qserve.Config) *Executor {
	cfg = cfg.WithDefaults()
	return &Executor{
		fleet: f,
		cfg:   cfg,
		adm:   qserve.NewAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		free:  make(chan *scratchSet, cfg.MaxConcurrent),
		pins:  make(chan *pinSet, cfg.MaxConcurrent),
		cache: qcache.New(cfg.CacheBytes),
	}
}

// Fleet returns the shard fleet the executor serves from.
func (e *Executor) Fleet() *Fleet { return e.fleet }

// Cache returns the executor's result cache (nil when disabled).
func (e *Executor) Cache() *qcache.Cache { return e.cache }

// NumVertices returns the fleet's fixed vertex-set size.
func (e *Executor) NumVertices() int { return e.fleet.NumVertices() }

// Ingest routes a batch through the fleet's per-shard gates (or the
// durable path when one is installed), returning the fleet sum-epoch
// ack; the live index then reconciles the batch.
func (e *Executor) Ingest(workers int, batch []edge.Update) (uint64, error) {
	var epoch uint64
	if e.ingest != nil {
		var err error
		epoch, err = e.ingest(batch)
		if err != nil {
			return epoch, err
		}
	} else {
		epoch = e.fleet.IngestEpoch(workers, batch)
	}
	if e.live != nil {
		e.live.Apply(batch)
	}
	return epoch, nil
}

// SetIngest installs a replacement ingest path (per-shard WAL group
// commit, DurableFleet). Call before serving; not synchronized with
// in-flight Ingest calls.
func (e *Executor) SetIngest(fn func(batch []edge.Update) (uint64, error)) { e.ingest = fn }

// WaitEpoch blocks until the fleet sum-epoch reaches min — the coarse
// fleet-level read-your-writes wait (see Fleet.WaitEpoch).
func (e *Executor) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	return e.fleet.WaitEpoch(min, timeout)
}

// Metrics returns the fleet-aggregated refresh metrics overlaid with
// the result-cache counters (zeros when caching is disabled).
func (e *Executor) Metrics() snapmgr.Metrics {
	m := e.fleet.Metrics()
	ctr := e.cache.Counters()
	m.CacheHits = ctr.Hits
	m.CacheMisses = ctr.Misses
	m.CacheCoalesced = ctr.Coalesced
	m.CacheEvictions = ctr.Evictions
	m.CacheBytes = ctr.Bytes
	return m
}

// Counters returns a point-in-time view of executor activity.
func (e *Executor) Counters() qserve.Counters { return e.adm.Counters() }

// checkout admits the query, pins one snapshot per shard, and — when
// caching is on — resolves the pinned set's cache generation. The
// fleet epoch is read before pinning so the reported epoch is a lower
// bound on the served snapshots' freshness. No kernel scratch is taken
// here: a cache hit answers from the generation without touching the
// arena pool.
func (e *Executor) checkout() (*pinSet, uint64, *qcache.Gen, error) {
	if err := e.adm.Acquire(); err != nil {
		return nil, 0, nil, err
	}
	var p *pinSet
	select {
	case p = <-e.pins:
	default:
		p = &pinSet{}
	}
	epoch := e.fleet.Epoch()
	p.views = e.fleet.View(p.views)
	var gen *qcache.Gen
	if e.cache != nil {
		p.ids = p.ids[:0]
		for _, g := range p.views {
			p.ids = append(p.ids, g)
		}
		gen = e.cache.ForViews(p.ids, epoch)
	}
	return p, epoch, gen, nil
}

// release returns the pin before freeing the slot.
func (e *Executor) release(p *pinSet) {
	e.pins <- p
	e.adm.Release()
}

// kscratch checks a kernel arena out of the pool; callers must hold an
// admission slot, so at most MaxConcurrent arenas exist.
func (e *Executor) kscratch() *scratchSet {
	select {
	case s := <-e.free:
		return s
	default:
		// An undirected fleet's views are symmetric, which is what lets
		// its traversals run pull levels.
		return &scratchSet{sc: &Scratch{pull: e.cfg.Undirected}}
	}
}

func (e *Executor) unscratch(s *scratchSet) { e.free <- s }

func (e *Executor) bfsValue(views []*csr.Graph, src uint32, keep bool) qcache.Value {
	s := e.kscratch()
	defer e.unscratch(s)
	level, reached, depth := s.sc.BFS(views, src)
	val := qcache.Value{N1: int64(reached), N2: int64(depth)}
	if keep {
		val.Levels = append([]int32(nil), level...)
	}
	return val
}

func (e *Executor) ssspValue(views []*csr.Graph, src uint32, delta int64, keep bool) qcache.Value {
	s := e.kscratch()
	defer e.unscratch(s)
	dist := s.sc.SSSP(views, src, sssp.LabelWeights, delta)
	var val qcache.Value
	for _, d := range dist {
		if d != sssp.Inf {
			val.N1++
			if d > val.N2 {
				val.N2 = d
			}
		}
	}
	if keep {
		val.Dist = append([]int64(nil), dist...)
	}
	return val
}

func (e *Executor) connValue(views []*csr.Graph, u, v uint32) qcache.Value {
	s := e.kscratch()
	defer e.unscratch(s)
	if hops, ok := s.sc.STConnected(views, u, v); ok {
		return qcache.Value{Flag: true, N1: int64(hops)}
	}
	return qcache.Value{N1: -1}
}

func (e *Executor) componentsValue(views []*csr.Graph, keep bool) qcache.Value {
	s := e.kscratch()
	defer e.unscratch(s)
	comp := s.sc.Components(views)
	s.sizes = cc.CensusInto(1, comp, s.sizes)
	_, size := cc.LargestOf(1, s.sizes)
	val := qcache.Value{N1: int64(cc.Count(comp)), N2: int64(size)}
	if keep {
		val.Labels = append([]uint32(nil), comp...)
	}
	return val
}

// Stats fans out over the shards, bypassing admission like the
// single-shard engine so the service stays observable under overload.
func (e *Executor) Stats() qserve.StatsReply {
	epoch := e.fleet.Epoch()
	views := e.fleet.View(nil)
	var sc Scratch
	st := sc.Stats(views)
	// Shards publish plain CSR snapshots; the fleet footprint is their sum.
	var bytes int64
	for _, g := range views {
		bytes += g.SizeBytes()
	}
	ctr := e.cache.Counters()
	return qserve.StatsReply{
		Vertices:       st.Vertices,
		Arcs:           st.Arcs,
		MaxDegree:      st.MaxDegree,
		Epoch:          epoch,
		Staleness:      e.fleet.Staleness(),
		SizeBytes:      bytes,
		Format:         "plain",
		CacheHits:      ctr.Hits,
		CacheMisses:    ctr.Misses,
		Coalesced:      ctr.Coalesced,
		CacheBytes:     ctr.Bytes,
		CacheEvictions: ctr.Evictions,
	}
}
