// Package qserve is the query-serving layer over the incremental
// snapshot pipeline: one executor that runs analysis queries against
// whatever snapshot its backend currently publishes, with per-worker
// kernel scratch checked out from a free list instead of allocated per
// request.
//
// One executor, two backends. The Executor owns the whole query flow —
// admission, validation, quick answers, the result cache, the live
// connectivity index, and ingest — and runs it over a Backend, which
// only pins snapshots, runs kernels from its own pooled scratch, and
// routes ingest: the single snapshot manager (New, in this package) or
// the vertex-partitioned shard fleet (internal/shard). A change to the
// flow is made once and both backends serve it.
//
// Query kinds are registered, not hand-plumbed: each kind appears once
// in this package's registry (see registry.go) with its wire name,
// parameter decoding, cache-key derivation, and reply encoding, and
// the generic (*Executor).Query path runs every kind through the
// same admission, validation, caching, and scratch-pooling flow; each
// backend keeps a kernel table indexed by the kind's dense id. The
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
// sssp.Scratch keys its cached bucket width by graph pointer, so a
// scratch that last served an older snapshot transparently rebuilds
// exactly the state the new snapshot needs (for SSSP a fixed-size
// sample of its labels; the kernel reads the arcs in place).
package qserve

import (
	"errors"
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/centrality"
	"snapdyn/internal/cluster"
	"snapdyn/internal/csr"
	"snapdyn/internal/dynconn"
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
	// CacheBytes is the result-cache budget, charged qcache.EntryBytes
	// per cached reply; <= 0 disables caching (every query recomputes).
	// The cache is keyed by snapshot identity — the published View
	// pointer, never the epoch number — so no-op refreshes keep entries
	// alive and a real refresh retires the whole generation with its
	// snapshot (see internal/qcache).
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

// strategy picks the traversal engine for BFS-shaped queries.
func (c Config) strategy() traversal.Strategy {
	if c.Undirected {
		return traversal.DirectionOpt
	}
	return traversal.TopDown
}

// scratchSet is one pooled unit of the single store's per-query kernel
// state: the traversal arena + result, the SSSP arena, the analytics
// kinds' arenas, and persistent traversal hooks (bound once so the
// steady-state query path allocates no closures).
type scratchSet struct {
	cfg  Config
	trav *traversal.Scratch
	res  traversal.Result
	ssp  *sssp.Scratch
	// sspStream is the compressed-layout SSSP arena; nil until the first
	// SSSP against a LayoutCompressed snapshot. dist is the last SSSP's
	// distance array, owned by whichever of the two arenas ran it.
	sspStream *sssp.StreamScratch
	dist      []int64
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

	// pr is the PageRank kernel's state (rank and next iterate, plus
	// the compressed layout's cursor); prView is the one-view set a
	// CSR snapshot is handed to it as, so the query allocates no slice.
	pr     centrality.PageRank
	prView [1]*csr.Graph
}

func newScratchSet(cfg Config) *scratchSet {
	s := &scratchSet{cfg: cfg, trav: traversal.NewScratch(), ssp: sssp.NewScratch()}
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
	return s
}

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
// counters, and refresh health. The Executor implements it over
// either backend.
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
	// means nothing was acknowledged. The batch is the caller's again
	// once Ingest returns (the HTTP handler reuses it): nothing may
	// retain it.
	Ingest(workers int, batch []edge.Update) (uint64, error)
	// WaitEpoch blocks until the published epoch reaches min (timeout
	// <= 0 waits forever), returning the epoch observed — the
	// read-your-writes wait paired with the ack epoch from Ingest.
	WaitEpoch(min uint64, timeout time.Duration) (uint64, error)
	// Metrics aggregates refresh activity and current lag.
	Metrics() snapmgr.Metrics
}

// Backend is the store an Executor serves from: everything that differs
// between one snapshot manager and a shard fleet, and nothing else.
// Implementations are safe for concurrent use.
type Backend interface {
	// NumVertices is the fixed vertex-set size.
	NumVertices() int
	// Pin pins the snapshot a query runs on and returns it with its
	// epoch lower bound (read before the snapshot) and, when c is not
	// nil, the cache generation keyed by its identity.
	Pin(c *qcache.Cache) (pin any, epoch uint64, gen *qcache.Gen)
	// Unpin hands a pin back once its query is done.
	Unpin(pin any)
	// Run executes sp's kernel against pin from the backend's pooled
	// scratch and returns the reply aggregates. Callers hold an
	// admission slot, so at most MaxConcurrent scratch sets ever exist.
	Run(sp *Spec, pin any, a Args) qcache.Value
	// IngestEpoch applies a batch through the backend's refresh gate(s)
	// and returns the ack epoch.
	IngestEpoch(workers int, batch []edge.Update) uint64
	// WaitEpoch blocks until the published epoch reaches min.
	WaitEpoch(min uint64, timeout time.Duration) (uint64, error)
	// Metrics reports refresh activity and lag.
	Metrics() snapmgr.Metrics
	// Stats reports the served snapshot's shape, layout, footprint,
	// epoch and staleness (the Executor adds the cache counters).
	Stats() StatsReply
	// LiveSource publishes any unpublished updates and returns the
	// served store as the live index reads it, plus the published
	// snapshot's adjacency, in original ids, to seed the index from.
	LiveSource() (dynconn.Reader, dynconn.Neighbors)
}

// Executor runs queries against its backend's published snapshots with
// pooled scratch, bounded admission and the result cache. All methods
// are safe for concurrent use.
type Executor struct {
	b     Backend
	n     int
	cfg   Config
	adm   *admission
	cache *qcache.Cache // nil when Config.CacheBytes <= 0

	// mgr is the single backend's manager; nil over any other backend.
	mgr *snapmgr.Manager

	// ingest, when set (SetIngest), replaces the backend's gated apply
	// with a durable commit path.
	ingest func(batch []edge.Update) (uint64, error)

	// live, when set (EnableLive), is the dynamic spanning forest the
	// ingest path maintains for between-refresh connectivity queries.
	live *Live
}

var _ Engine = (*Executor)(nil)

// NewExecutor returns an executor over b, which was built for cfg.
func NewExecutor(b Backend, cfg Config) *Executor {
	cfg = cfg.WithDefaults()
	return &Executor{
		b:     b,
		n:     b.NumVertices(),
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		cache: qcache.New(cfg.CacheBytes),
	}
}

// New returns an executor over the manager's published snapshots.
func New(mgr *snapmgr.Manager, cfg Config) *Executor {
	cfg = cfg.WithDefaults()
	e := NewExecutor(&single{mgr: mgr, cfg: cfg, free: make(chan *scratchSet, cfg.MaxConcurrent)}, cfg)
	e.mgr = mgr
	return e
}

// Cache returns the executor's result cache (nil when disabled) — the
// observation hook tests and the workload harness verify through.
func (e *Executor) Cache() *qcache.Cache { return e.cache }

// Backend returns the backend the executor serves from.
func (e *Executor) Backend() Backend { return e.b }

// Manager returns the snapshot manager the executor serves from; nil
// when it serves another backend.
func (e *Executor) Manager() *snapmgr.Manager { return e.mgr }

// NumVertices returns the backend's fixed vertex-set size.
func (e *Executor) NumVertices() int { return e.n }

// Ingest applies a batch and returns the ack epoch: by default through
// the backend's refresh gate(s) (volatile, synchronous), or through the
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
		epoch = e.b.IngestEpoch(workers, batch)
	}
	if e.live != nil {
		e.live.Apply(batch)
	}
	return epoch, nil
}

// SetIngest installs a replacement ingest path (the durable
// group-commit front: internal/durable, or shard.DurableFleet). Call
// before serving; not synchronized with in-flight Ingest calls.
func (e *Executor) SetIngest(fn func(batch []edge.Update) (uint64, error)) { e.ingest = fn }

// WaitEpoch blocks until the backend publishes epoch min, for
// read-your-writes against an ingest ack.
func (e *Executor) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	return e.b.WaitEpoch(min, timeout)
}

// Metrics returns the backend's refresh metrics overlaid with the
// result-cache counters (zeros when caching is disabled).
func (e *Executor) Metrics() snapmgr.Metrics {
	m := e.b.Metrics()
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

// single is the Backend over one snapshot manager, in whatever storage
// layout it publishes.
type single struct {
	mgr  *snapmgr.Manager
	cfg  Config
	free chan *scratchSet
}

func (b *single) NumVertices() int { return b.mgr.Store().NumVertices() }

// Pin hands out the current view. No scratch is taken here: a cache hit
// answers from the generation without ever touching the scratch pool
// (the 0-alloc hit path); only a miss checks a set out, in Run.
func (b *single) Pin(c *qcache.Cache) (any, uint64, *qcache.Gen) {
	// Epoch first, then the view: the snapshot served is at least this
	// fresh (publication stores the view before bumping the epoch).
	epoch := b.mgr.Epoch()
	v := b.mgr.View()
	return v, epoch, c.ForView(v, epoch)
}

func (b *single) Unpin(any) {}

// Run checks a scratch set out of the pool for one kernel. The free
// list is slot-capacity sized, so returning the set never blocks, and
// it is back before the caller's slot is released: a queued query that
// wakes always finds a warm set on the free list.
func (b *single) Run(sp *Spec, pin any, a Args) qcache.Value {
	var s *scratchSet
	select {
	case s = <-b.free:
	default:
		s = newScratchSet(b.cfg)
	}
	defer func() { b.free <- s }()
	return singleKernels[sp.id](s, pin.(*snapmgr.View), a)
}

func (b *single) IngestEpoch(workers int, batch []edge.Update) uint64 {
	return b.mgr.IngestEpoch(func(t *dyngraph.Tracked) { t.ApplyBatch(workers, batch) })
}

func (b *single) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	return b.mgr.WaitEpoch(min, timeout)
}

func (b *single) Metrics() snapmgr.Metrics { return b.mgr.Metrics() }

func (b *single) LiveSource() (dynconn.Reader, dynconn.Neighbors) {
	if b.mgr.Staleness() > 0 {
		b.mgr.Refresh(0)
	}
	return b.mgr.Store(), viewNeighbors(b.mgr.View())
}

// singleKernel executes one kind against a pinned view from a checked-out
// scratch set and returns the reply aggregates; the kernel's per-vertex
// output stays in the set.
type singleKernel func(s *scratchSet, v *snapmgr.View, a Args) qcache.Value

// singleKernels is the single store's kernel table, indexed by spec id
// (filled in registry.go's init, once the ids are assigned).
var singleKernels []singleKernel

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

// bfsValue executes the BFS kernel against the pinned view; the level
// array stays in s.res.
func (s *scratchSet) bfsValue(v *snapmgr.View, a Args) qcache.Value {
	s.src[0] = translate(v, uint32(a.A))
	opt := traversal.Options{Workers: s.cfg.Workers, Strategy: s.cfg.strategy()}
	if v.C != nil {
		traversal.RunStream(v.C, s.src[:1], opt, s.trav, &s.res)
	} else {
		traversal.Run(v.G, s.src[:1], opt, s.trav, &s.res)
	}
	return qcache.Value{N1: int64(s.res.Reached), N2: int64(s.res.Levels)}
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
// The kernel relaxes the pinned snapshot's arcs in place, reading each
// label as its weight; the pooled scratch holds only O(n) buffers and
// the bucket width chosen for (graph, delta). The first SSSP a scratch
// serves on a newly published snapshot, and any request whose delta
// differs from the cached one, re-chooses the width from a fixed-size
// sample of 2^16 labels, with no allocation. Per-request delta tuning
// is therefore free, but the default width already sits on the flat
// part of the curve.
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

// ssspValue executes the shortest-paths kernel straight over the pinned
// view's arcs; s.dist is left pointing at the distances, owned by the
// SSSP scratch.
func (s *scratchSet) ssspValue(v *snapmgr.View, a Args) qcache.Value {
	src := edge.ID(translate(v, uint32(a.A)))
	if v.C != nil {
		if s.sspStream == nil {
			s.sspStream = sssp.NewStreamScratch()
		}
		s.dist = sssp.RunStream(v.C, src, s.cfg.Workers, sssp.LabelWeights, s.sspStream)
	} else {
		s.dist = sssp.Run(v.G, src, sssp.Options{Workers: s.cfg.Workers, Delta: int64(a.B), Scratch: s.ssp})
	}
	var val qcache.Value
	for _, d := range s.dist {
		if d != sssp.Inf {
			val.N1++
			if d > val.N2 {
				val.N2 = d
			}
		}
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
// against the pinned view.
func (s *scratchSet) connValue(view *snapmgr.View, a Args) qcache.Value {
	// The whole query runs in layout space: source, early-exit target,
	// and the settled level read back. Hop counts are id-invariant.
	s.src[0] = translate(view, uint32(a.A))
	s.connTarget = translate(view, uint32(a.B))
	opt := traversal.Options{
		Workers:  s.cfg.Workers,
		Strategy: s.cfg.strategy(),
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

// componentsValue executes the component labeling against the pinned view;
// the label array stays in s.comp.
func (s *scratchSet) componentsValue(v *snapmgr.View, _ Args) qcache.Value {
	if v.C != nil {
		s.comp, s.queue = traversal.StreamComponentsInto(v.C, s.comp, s.queue)
	} else {
		// Reordered views label in permuted space; component count and
		// sizes are invariant under relabeling, so the reply is identical.
		s.comp = cc.ComponentsInto(s.cfg.Workers, v.G, s.comp)
	}
	s.sizes = cc.CensusInto(s.cfg.Workers, s.comp, s.sizes)
	_, size := cc.LargestOf(s.cfg.Workers, s.sizes)
	return qcache.Value{N1: int64(cc.Count(s.comp)), N2: int64(size)}
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
	// leader's execution; CacheBytes is the live generation's budget
	// charge (qcache.EntryBytes per entry).
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	Coalesced      uint64 `json:"coalesced"`
	CacheBytes     int64  `json:"cacheBytes"`
	CacheEvictions uint64 `json:"cacheEvictions"`
}

// Stats reports the current snapshot's shape, layout, and footprint
// plus the backend's epoch and staleness and the cache counters. It
// bypasses admission: stats are cheap (at most one O(n) degree scan)
// and must stay observable under query overload.
func (e *Executor) Stats() StatsReply {
	st := e.b.Stats()
	ctr := e.cache.Counters()
	st.CacheHits = ctr.Hits
	st.CacheMisses = ctr.Misses
	st.Coalesced = ctr.Coalesced
	st.CacheBytes = ctr.Bytes
	st.CacheEvictions = ctr.Evictions
	return st
}

func (b *single) Stats() StatsReply {
	epoch := b.mgr.Epoch()
	v := b.mgr.View()
	maxDeg := int64(0)
	if v.C != nil {
		maxDeg = v.C.MaxDegree()
	} else {
		maxDeg = v.G.MaxDegree()
	}
	return StatsReply{
		Vertices:  v.NumVertices(),
		Arcs:      v.NumEdges(),
		MaxDegree: maxDeg,
		Epoch:     epoch,
		Staleness: b.mgr.Staleness(),
		SizeBytes: v.SizeBytes(),
		Format:    b.mgr.Layout().String(),
	}
}
