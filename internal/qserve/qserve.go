// Package qserve is the query-serving layer over the incremental
// snapshot pipeline: a fixed-capacity executor pool that runs analysis
// queries against whatever snapshot the manager currently publishes,
// with per-worker kernel scratch checked out from a free list instead
// of allocated per request.
//
// Query kinds are registered, not hand-plumbed: each kind appears once
// in this package's registry (see registry.go) with its wire name,
// parameter decoding, cache-key derivation, kernel, and reply encoding,
// and the generic (*Executor).Query path runs every kind through the
// same admission, validation, caching, and scratch-pooling flow. The
// registered kinds are BFS, delta-stepping SSSP, st-connectivity
// (snapshot or live), connected components, clustering coefficients,
// k-hop neighborhood size, and PageRank; stats and the offline sampled
// betweenness job sit beside the registry (no caching, no admission
// semantics to share).
//
// Consistency comes in two models. Snapshot queries answer from the
// immutable published view — repeatable until the next refresh, and
// cacheable by snapshot identity. Live st-connectivity (Connected with
// live=1 after EnableLive) answers from a dynamic spanning forest
// maintained synchronously by the ingest path, so it observes updates
// the next snapshot has not published yet; at quiesce — after a refresh
// with no ingest racing it — the forest and the snapshot's components
// agree exactly. Live answers are never cached.
//
// Admission is queue-or-shed: up to MaxConcurrent queries execute at
// once, up to MaxQueue more wait their turn, and anything beyond that
// is shed immediately with ErrOverloaded — bounded latency under
// overload instead of an unbounded goroutine pile-up.
//
// Scratch reuse across epochs is safe by construction: a
// traversal.Scratch re-validates itself by graph shape (n, m) and an
// sssp.Scratch keys its cached weighted view by graph pointer, so a
// scratch that last served an older snapshot transparently rebuilds
// exactly the state the new snapshot needs (for SSSP one streaming
// partition pass into arrays it already owns). The free list tags each
// scratch with the epoch it last served so that revalidation has one
// hook point (and so tests can observe reuse).
package qserve

import (
	"errors"
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/cluster"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/qcache"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
	"snapdyn/internal/traversal"
)

// ErrOverloaded is returned when a query is shed: MaxConcurrent queries
// are executing and MaxQueue more are already waiting.
var ErrOverloaded = errors.New("qserve: overloaded, query shed")

// ErrBadVertex is returned when a query names a vertex outside the
// snapshot's vertex set.
var ErrBadVertex = errors.New("qserve: vertex out of range")

// ErrStale is returned when a query demands a minimum snapshot epoch
// (read-your-writes against an ingest ack) that did not publish within
// the staleness wait — the serving layer's 503, retryable.
var ErrStale = errors.New("qserve: snapshot older than requested minEpoch")

// Config sizes the executor pool.
type Config struct {
	// Workers is the kernel parallelism of each query; <= 0 means 1
	// (serve many queries concurrently rather than one query on many
	// cores — the serving default).
	Workers int
	// MaxConcurrent bounds the queries executing at once; <= 0 means
	// GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the queries waiting for a slot; <= 0 means
	// 2*MaxConcurrent. Beyond it, queries are shed with ErrOverloaded.
	MaxQueue int
	// Undirected declares the managed snapshots symmetric, enabling the
	// direction-opt traversal strategy for BFS-shaped queries.
	Undirected bool
	// CacheBytes is the result-cache payload budget; <= 0 disables
	// caching (every query recomputes). The cache is keyed by snapshot
	// identity — the published View pointer, never the epoch number —
	// so no-op refreshes keep entries alive and a real refresh retires
	// the whole generation with its snapshot (see internal/qcache).
	CacheBytes int64
}

// WithDefaults fills unset fields with the serving defaults.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = par.MaxWorkers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	return c
}

// scratchSet is one pooled unit of per-query kernel state: the
// traversal arena + result, the SSSP arena, and a persistent
// st-connectivity early-exit hook (bound once so the steady-state
// query path allocates no closures).
type scratchSet struct {
	trav *traversal.Scratch
	res  traversal.Result
	ssp  *sssp.Scratch
	// sspStream is the compressed-layout SSSP arena; nil until the first
	// SSSP against a LayoutCompressed snapshot.
	sspStream *sssp.StreamScratch
	src       [1]uint32

	// comp and sizes are the component query's label array and census,
	// pool-owned so Components allocates nothing per request. queue is
	// the compressed-layout component labeler's BFS queue.
	comp  []uint32
	sizes []int
	queue []uint32

	connTarget uint32
	connHook   func(int32, int) bool

	// khopK/khopReached drive the k-hop neighborhood query: a pooled
	// level-end hook that counts discoveries through level k and stops
	// the traversal there.
	khopK       int32
	khopReached int
	khopHook    func(int32, int) bool

	// clus is the triangle-counting arena (lazily built on the first
	// clustering query, then reused across epochs — it resizes itself
	// to the snapshot's shape). clusMap is the original-id → layout-id
	// aggregation order, bound once over clusView so the steady-state
	// clustering query allocates no closures.
	clus     *cluster.Scratch
	clusView *snapmgr.View
	clusMap  func(uint32) uint32

	// PageRank push-residual state (see kernels.go): per-vertex rank
	// and residual (residual as float bits for atomic CAS updates), a
	// per-frontier-vertex push amount, a level tag that lets the owner
	// of a frontier vertex harvest its residual exactly once per
	// round, and the all-vertices source list. The hooks are bound
	// once so the steady-state query path allocates no closures.
	prRank     []float64
	prResid    []uint64
	prPush     []float64
	prClaim    []int32
	prSrcs     []uint32
	prLevel    int32
	prTol      float64
	prView     *snapmgr.View
	prRelax    func(u, v, t uint32) bool
	prLevelEnd func(int32, int) bool

	// epoch is the snapshot version this set last served. Kernel
	// scratches self-revalidate (traversal by (n, m), sssp by graph
	// pointer), so nothing is rebuilt eagerly on an epoch change; the
	// tag exists so revalidate has a place to hang any future cache
	// that is keyed by epoch rather than by shape.
	epoch uint64
}

func newScratchSet() *scratchSet {
	s := &scratchSet{trav: traversal.NewScratch(), ssp: sssp.NewScratch()}
	s.connHook = func(int32, int) bool {
		return s.res.Level[s.connTarget] == traversal.NotVisited
	}
	s.khopHook = func(level int32, discovered int) bool {
		if level <= s.khopK {
			s.khopReached += discovered
		}
		return level < s.khopK
	}
	s.clusMap = func(orig uint32) uint32 { return translate(s.clusView, orig) }
	s.prRelax = prRelaxStep(s)
	s.prLevelEnd = func(level int32, discovered int) bool {
		s.prLevel = level + 1
		return level < prMaxLevels
	}
	return s
}

// revalidate prepares the set for a snapshot at the given epoch. The
// kernel scratches detect shape/graph changes on their own, so this is
// only the epoch tag today.
func (s *scratchSet) revalidate(epoch uint64) { s.epoch = epoch }

// Counters reports executor activity. Served counts completed queries,
// Shed the ones refused with ErrOverloaded, Inflight and Waiting the
// instantaneous occupancy.
type Counters struct {
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`
	Inflight int    `json:"inflight"`
	Waiting  int    `json:"waiting"`
}

// Engine is the query surface the HTTP server (and any other frontend)
// serves: the generic registry-driven Query entry point, the legacy
// typed methods (thin wrappers over Query), plus ingest, admission
// counters, and refresh health. The single-snapshot Executor
// implements it, and so does the sharded fleet executor in
// internal/shard — one facade, two engines.
type Engine interface {
	// Query runs one registered query kind through the engine's
	// admission, validation, cache, and kernel-dispatch flow. Kinds an
	// engine cannot serve fail with ErrUnsupported.
	Query(sp *Spec, a Args) (Result, error)
	BFS(src uint32) (BFSReply, error)
	SSSP(src uint32, delta int64) (SSSPReply, error)
	Connected(u, v uint32) (ConnReply, error)
	Components() (ComponentsReply, error)
	Stats() StatsReply
	Counters() Counters
	// NumVertices is the fixed vertex-set size, for ingest validation.
	NumVertices() int
	// Ingest applies a batch through the engine's refresh gate(s) —
	// or, when a durable ingest path is installed, through the
	// group-commit WAL — returning the ack epoch: the snapshot epoch
	// guaranteed to contain the batch. On the durable path the call
	// returns only after the batch is fsynced and applied; an error
	// means nothing was acknowledged.
	Ingest(workers int, batch []edge.Update) (uint64, error)
	// WaitEpoch blocks until the published epoch reaches min (timeout
	// <= 0 waits forever), returning the epoch observed — the
	// read-your-writes wait paired with the ack epoch from Ingest.
	WaitEpoch(min uint64, timeout time.Duration) (uint64, error)
	// Metrics aggregates refresh activity and current lag.
	Metrics() snapmgr.Metrics
}

// Executor runs queries against mgr.Current() with pooled scratch and
// bounded admission. All methods are safe for concurrent use.
type Executor struct {
	mgr   *snapmgr.Manager
	cfg   Config
	adm   *Admission
	free  chan *scratchSet
	cache *qcache.Cache // nil when Config.CacheBytes <= 0

	// ingest, when set (SetIngest), replaces the direct gated apply
	// with a durable commit path.
	ingest func(batch []edge.Update) (uint64, error)

	// live, when set (EnableLive), is the dynamic spanning forest the
	// ingest path maintains for between-refresh connectivity queries.
	live *Live
}

var _ Engine = (*Executor)(nil)

// New returns an executor over the manager's published snapshots.
func New(mgr *snapmgr.Manager, cfg Config) *Executor {
	cfg = cfg.WithDefaults()
	return &Executor{
		mgr:   mgr,
		cfg:   cfg,
		adm:   NewAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		free:  make(chan *scratchSet, cfg.MaxConcurrent),
		cache: qcache.New(cfg.CacheBytes),
	}
}

// Cache returns the executor's result cache (nil when disabled) — the
// observation hook tests and the workload harness verify through.
func (e *Executor) Cache() *qcache.Cache { return e.cache }

// Manager returns the snapshot manager the executor serves from.
func (e *Executor) Manager() *snapmgr.Manager { return e.mgr }

// NumVertices returns the managed store's fixed vertex-set size.
func (e *Executor) NumVertices() int { return e.mgr.Store().NumVertices() }

// Ingest applies a batch and returns the ack epoch: by default through
// the manager's refresh gate (volatile, synchronous), or through the
// durable group-commit path when one is installed with SetIngest. When
// live connectivity is enabled the same batch then updates the dynamic
// forest, so a live query issued after this call returns observes the
// batch without waiting for a refresh. Safe concurrently with queries
// and the auto-refresher.
func (e *Executor) Ingest(workers int, batch []edge.Update) (uint64, error) {
	var epoch uint64
	if e.ingest != nil {
		var err error
		epoch, err = e.ingest(batch)
		if err != nil {
			return epoch, err
		}
	} else {
		epoch = e.mgr.IngestEpoch(func(t *dyngraph.Tracked) { t.ApplyBatch(workers, batch) })
	}
	if e.live != nil {
		e.live.Apply(batch)
	}
	return epoch, nil
}

// SetIngest installs a replacement ingest path (the durable
// group-commit front, internal/durable). Call before serving; not
// synchronized with in-flight Ingest calls.
func (e *Executor) SetIngest(fn func(batch []edge.Update) (uint64, error)) { e.ingest = fn }

// WaitEpoch blocks until the manager publishes epoch min, for
// read-your-writes against an ingest ack.
func (e *Executor) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	return e.mgr.WaitEpoch(min, timeout)
}

// Metrics returns the manager's refresh metrics overlaid with the
// result-cache counters (zeros when caching is disabled).
func (e *Executor) Metrics() snapmgr.Metrics {
	m := e.mgr.Metrics()
	ctr := e.cache.Counters()
	m.CacheHits = ctr.Hits
	m.CacheMisses = ctr.Misses
	m.CacheCoalesced = ctr.Coalesced
	m.CacheEvictions = ctr.Evictions
	m.CacheBytes = ctr.Bytes
	return m
}

// Counters returns a point-in-time view of executor activity.
func (e *Executor) Counters() Counters { return e.adm.Counters() }

// checkout admits the query (queue-or-shed), then hands out the current
// snapshot view (in whatever storage layout the manager publishes), its
// epoch lower bound, and — when caching is on — the snapshot's cache
// generation. No scratch is taken here: a cache hit answers from the
// generation without ever touching the scratch pool (the 0-alloc hit
// path); only a miss checks a set out via scratch().
func (e *Executor) checkout() (*snapmgr.View, uint64, *qcache.Gen, error) {
	if err := e.adm.Acquire(); err != nil {
		return nil, 0, nil, err
	}
	// Epoch first, then the view: the snapshot served is at least this
	// fresh (publication stores the view before bumping the epoch).
	epoch := e.mgr.Epoch()
	v := e.mgr.View()
	return v, epoch, e.cache.ForView(v, epoch), nil
}

// scratch checks a set out of the pool. Callers must hold an admission
// slot: scratch objects are only ever created while holding one and the
// free list is slot-capacity sized, so at most MaxConcurrent sets exist
// and unscratch never drops one.
func (e *Executor) scratch(epoch uint64) *scratchSet {
	var s *scratchSet
	select {
	case s = <-e.free:
	default:
		s = newScratchSet()
	}
	s.revalidate(epoch)
	return s
}

// unscratch returns a set to the pool. Runs before the caller's
// deferred slot release, so a queued query that wakes always finds a
// warm set on the free list.
func (e *Executor) unscratch(s *scratchSet) { e.free <- s }

// translate maps an original vertex id into the view's layout space:
// the identity for plain and compressed views, the held permutation for
// reordered ones. Queries accept and report original ids only; the
// layout is invisible at the query surface.
func translate(v *snapmgr.View, u uint32) uint32 {
	if v.Perm != nil {
		return v.Perm[u]
	}
	return u
}

// strategy picks the traversal engine for BFS-shaped queries.
func (e *Executor) strategy() traversal.Strategy {
	if e.cfg.Undirected {
		return traversal.DirectionOpt
	}
	return traversal.TopDown
}

// BFSReply summarizes one BFS query.
type BFSReply struct {
	Src     uint32 `json:"src"`
	Reached int    `json:"reached"`
	Levels  int    `json:"levels"`
	Epoch   uint64 `json:"epoch"`
}

// BFS runs a breadth-first search from src over the current snapshot,
// whatever its storage layout: reordered views translate src through
// the held permutation, compressed views traverse by streaming decode
// (traversal.RunStream). The reply's aggregates are id-invariant, so
// every layout answers bit-identically. With caching on, a repeat src
// against the same published snapshot is served from the generation
// without touching the scratch pool, and concurrent identical misses
// coalesce onto one kernel execution.
func (e *Executor) BFS(src uint32) (BFSReply, error) {
	a := Args{A: uint64(src)}
	r, err := e.Query(SpecBFS, a)
	if err != nil {
		return BFSReply{}, err
	}
	return BFSReplyFrom(a, r), nil
}

// bfsValue executes the BFS kernel against the pinned view. keep copies
// the level array out of the pooled scratch into an immutable slice for
// the cache; the uncached path skips the copy and stays allocation-free.
func (e *Executor) bfsValue(v *snapmgr.View, epoch uint64, src uint32, keep bool) qcache.Value {
	s := e.scratch(epoch)
	defer e.unscratch(s)
	s.src[0] = translate(v, src)
	opt := traversal.Options{Workers: e.cfg.Workers, Strategy: e.strategy()}
	if v.C != nil {
		traversal.RunStream(v.C, s.src[:1], opt, s.trav, &s.res)
	} else {
		traversal.Run(v.G, s.src[:1], opt, s.trav, &s.res)
	}
	val := qcache.Value{N1: int64(s.res.Reached), N2: int64(s.res.Levels)}
	if keep {
		val.Levels = append([]int32(nil), s.res.Level...)
	}
	return val
}

// SSSPReply summarizes one delta-stepping shortest-paths query.
type SSSPReply struct {
	Src     uint32 `json:"src"`
	Reached int    `json:"reached"`
	// MaxDist is the largest finite distance (the weighted eccentricity
	// of src); 0 when nothing beyond src is reachable.
	MaxDist int64  `json:"maxDist"`
	Epoch   uint64 `json:"epoch"`
}

// SSSP runs delta-stepping shortest paths from src with the arc time
// labels as weights (delta <= 0 picks the heuristic bucket width).
//
// The pooled scratch caches its weighted graph view keyed by (graph,
// delta): requests that agree on delta (in particular the <= 0
// default) reuse it across the epoch. The first SSSP a scratch serves
// on a newly published snapshot, and any request whose delta differs
// from the scratch's cached one, re-partitions the view inside the
// request: one streaming O(m) pass with no allocation, 4-5 ms per
// million arcs against a 7-8 ms warm kernel run. Per-request delta
// tuning is therefore cheap, but the default width already sits on the
// flat part of the curve.
// Under LayoutCompressed the query runs the streaming Bellman-Ford
// kernel (sssp.RunStream) instead of delta-stepping — distances are
// identical; delta is ignored there (the stream kernel has no buckets).
func (e *Executor) SSSP(src uint32, delta int64) (SSSPReply, error) {
	a := Args{A: uint64(src), B: uint64(delta)}
	r, err := e.Query(SpecSSSP, a)
	if err != nil {
		return SSSPReply{}, err
	}
	return SSSPReplyFrom(a, r), nil
}

// ssspValue executes the shortest-paths kernel against the pinned view;
// keep copies the distance array out for the cache.
func (e *Executor) ssspValue(v *snapmgr.View, epoch uint64, src uint32, delta int64, keep bool) qcache.Value {
	s := e.scratch(epoch)
	defer e.unscratch(s)
	var dist []int64
	if v.C != nil {
		if s.sspStream == nil {
			s.sspStream = sssp.NewStreamScratch()
		}
		dist = sssp.RunStream(v.C, edge.ID(translate(v, src)), e.cfg.Workers, sssp.LabelWeights, s.sspStream)
	} else {
		dist = sssp.Run(v.G, edge.ID(translate(v, src)), sssp.Options{Workers: e.cfg.Workers, Delta: delta, Scratch: s.ssp})
	}
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

// ConnReply answers one st-connectivity query.
type ConnReply struct {
	U         uint32 `json:"u"`
	V         uint32 `json:"v"`
	Connected bool   `json:"connected"`
	// Hops is the hop distance between u and v; -1 when disconnected —
	// and also -1 on the live path (u != v), where the forest proves
	// connectivity without computing shortest paths.
	Hops  int32  `json:"hops"`
	Epoch uint64 `json:"epoch"`
	// Live marks an answer served from the update-stream forest rather
	// than a published snapshot (Epoch is then only the publication
	// lower bound; the answer may be fresher).
	Live bool `json:"live,omitempty"`
}

// Connected answers st-connectivity by an early-exiting traversal from
// u: the engine's level-end hook stops as soon as v settles, so the
// remaining levels' arcs are never inspected.
func (e *Executor) Connected(u, v uint32) (ConnReply, error) {
	a := Args{A: uint64(u), B: uint64(v)}
	r, err := e.Query(SpecConnected, a)
	if err != nil {
		return ConnReply{}, err
	}
	return ConnReplyFrom(a, r), nil
}

// ConnectedLive answers st-connectivity from the dynamic forest the
// ingest path maintains — no snapshot wait, hop count unavailable.
// ErrUnsupported until EnableLive.
func (e *Executor) ConnectedLive(u, v uint32) (ConnReply, error) {
	a := Args{A: uint64(u), B: uint64(v), Live: true}
	r, err := e.Query(SpecConnected, a)
	if err != nil {
		return ConnReply{}, err
	}
	return ConnReplyFrom(a, r), nil
}

// connValue executes the early-exiting st-connectivity traversal
// against the pinned view. The verdict is two scalars — it is cached
// whole (no payload copy to skip).
func (e *Executor) connValue(view *snapmgr.View, epoch uint64, u, v uint32) qcache.Value {
	s := e.scratch(epoch)
	defer e.unscratch(s)
	// The whole query runs in layout space: source, early-exit target,
	// and the settled level read back. Hop counts are id-invariant.
	s.src[0] = translate(view, u)
	s.connTarget = translate(view, v)
	opt := traversal.Options{
		Workers:  e.cfg.Workers,
		Strategy: e.strategy(),
		Hooks:    traversal.Hooks{OnLevelEnd: s.connHook},
	}
	if view.C != nil {
		traversal.RunStream(view.C, s.src[:1], opt, s.trav, &s.res)
	} else {
		traversal.Run(view.G, s.src[:1], opt, s.trav, &s.res)
	}
	if lvl := s.res.Level[s.connTarget]; lvl != traversal.NotVisited {
		return qcache.Value{Flag: true, N1: int64(lvl)}
	}
	return qcache.Value{N1: -1}
}

// ComponentsReply summarizes the component structure.
type ComponentsReply struct {
	Components  int    `json:"components"`
	LargestSize int    `json:"largestSize"`
	Epoch       uint64 `json:"epoch"`
}

// Components labels weakly-connected components over the current
// snapshot. The label array and its census live in the pooled scratch
// (cc.ComponentsInto / cc.CensusInto), so the steady state allocates
// nothing per request at the serving config (Workers = 1; the parallel
// census path still builds per-worker partial counts).
func (e *Executor) Components() (ComponentsReply, error) {
	r, err := e.Query(SpecComponents, Args{})
	if err != nil {
		return ComponentsReply{}, err
	}
	return ComponentsReplyFrom(r), nil
}

// componentsValue executes the component labeling against the pinned
// view; keep copies the label array out for the cache.
func (e *Executor) componentsValue(v *snapmgr.View, epoch uint64, keep bool) qcache.Value {
	s := e.scratch(epoch)
	defer e.unscratch(s)
	if v.C != nil {
		s.comp, s.queue = traversal.StreamComponentsInto(v.C, s.comp, s.queue)
	} else {
		// Reordered views label in permuted space; component count and
		// sizes are invariant under relabeling, so the reply is identical.
		s.comp = cc.ComponentsInto(e.cfg.Workers, v.G, s.comp)
	}
	s.sizes = cc.CensusInto(e.cfg.Workers, s.comp, s.sizes)
	_, size := cc.LargestOf(e.cfg.Workers, s.sizes)
	val := qcache.Value{N1: int64(cc.Count(s.comp)), N2: int64(size)}
	if keep {
		val.Labels = append([]uint32(nil), s.comp...)
	}
	return val
}

// StatsReply summarizes the served snapshot and the serving state,
// including the snapshot's storage layout and in-memory footprint — the
// memory-scale observability the /stats endpoint exposes.
type StatsReply struct {
	Vertices  int    `json:"vertices"`
	Arcs      int64  `json:"arcs"`
	MaxDegree int64  `json:"maxDegree"`
	Epoch     uint64 `json:"epoch"`
	Staleness int    `json:"staleness"`
	SizeBytes int64  `json:"sizeBytes"`
	Format    string `json:"format"`
	// Result-cache activity (internal/qcache); all zero when caching
	// is disabled. Coalesced counts followers that shared an in-flight
	// leader's execution; CacheBytes is the live generation's payload
	// footprint.
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	Coalesced      uint64 `json:"coalesced"`
	CacheBytes     int64  `json:"cacheBytes"`
	CacheEvictions uint64 `json:"cacheEvictions"`
}

// Stats reports the current snapshot's shape, layout, and footprint
// plus the manager's epoch and staleness. It bypasses admission: stats
// are cheap (at most one O(n) degree scan) and must stay observable
// under query overload.
func (e *Executor) Stats() StatsReply {
	epoch := e.mgr.Epoch()
	v := e.mgr.View()
	maxDeg := int64(0)
	if v.C != nil {
		maxDeg = v.C.MaxDegree()
	} else {
		maxDeg = v.G.MaxDegree()
	}
	ctr := e.cache.Counters()
	return StatsReply{
		Vertices:       v.NumVertices(),
		Arcs:           v.NumEdges(),
		MaxDegree:      maxDeg,
		Epoch:          epoch,
		Staleness:      e.mgr.Staleness(),
		SizeBytes:      v.SizeBytes(),
		Format:         e.mgr.Layout().String(),
		CacheHits:      ctr.Hits,
		CacheMisses:    ctr.Misses,
		Coalesced:      ctr.Coalesced,
		CacheBytes:     ctr.Bytes,
		CacheEvictions: ctr.Evictions,
	}
}
