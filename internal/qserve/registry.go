package qserve

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"snapdyn/internal/qcache"
)

// ErrUnsupported is returned when a query kind (or a mode of one, such
// as live connectivity without an enabled live index) is not available
// on this engine or snapshot layout — the serving layer's 501.
var ErrUnsupported = errors.New("qserve: query kind not supported by this engine")

// Args is the decoded argument set of one query, uniform across kinds:
// two integer operands (vertex ids, a bucket width, a float's bits —
// the spec's decode/validate functions fix the interpretation) plus the
// live flag for kinds that can answer from the update stream instead of
// the snapshot. Passed by value so the steady-state query path stays
// allocation-free.
type Args struct {
	A, B uint64
	Live bool
}

// CacheState records how a query's result was produced relative to the
// result cache.
type CacheState uint8

const (
	// CacheBypass: computed directly — caching disabled, the kind is
	// uncacheable, or a trivial short-circuit answered without a kernel.
	CacheBypass CacheState = iota
	// CacheHit: served from the snapshot's cache generation.
	CacheHit
	// CacheMiss: computed (possibly coalescing concurrent identical
	// requests) and stored into the generation.
	CacheMiss
	// CacheLive: answered from the live update-stream index, not from
	// any snapshot.
	CacheLive
)

func (c CacheState) String() string {
	switch c {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheLive:
		return "live"
	default:
		return "bypass"
	}
}

// Result is the kind-agnostic outcome of one query: the kernel's value
// aggregates, the epoch lower bound of the snapshot served (0 on the
// live path), and the cache disposition. Each spec's encode function
// (and the typed convenience methods) project it into the kind's wire
// reply.
type Result struct {
	Val   qcache.Value
	Epoch uint64
	Cache CacheState
}

// Spec is one registered query kind: everything the generic serving
// path needs to admit, validate, cache, and encode it. A kind registers
// exactly once (in this package's init); the executor, the HTTP layer,
// and the cache all dispatch through the registry instead of per-kind
// plumbing. Kernels are not part of a Spec: each backend keeps its own
// kernel table indexed by the spec's dense id.
type Spec struct {
	id   int
	name string
	kind qcache.Kind

	// vertexA/vertexB mark which operands are vertex ids that must be
	// range-checked against the snapshot's vertex set.
	vertexA, vertexB bool

	// quick, when set, may answer without a kernel or cache round trip
	// (e.g. u == v st-connectivity).
	quick func(a Args) (qcache.Value, bool)
	// key derives the kind's cache key; ok=false marks this request
	// uncacheable (live-path queries). The Kind field always comes from
	// the spec's registered kind, so keys cannot collide across kinds.
	key func(a Args) (qcache.Key, bool)
	// live, when set, answers Args with Live set from the live
	// update-stream index instead of a snapshot.
	live func(l *Live, a Args) qcache.Value
	// decode parses HTTP query parameters into Args.
	decode func(q url.Values) (Args, error)
	// encode builds the kind's JSON wire reply.
	encode func(a Args, r Result) any
}

// Name is the kind's wire name: the <kind> in /v1/query/<kind>.
func (sp *Spec) Name() string { return sp.name }

// ID is the kind's dense registration index, stable for the process
// lifetime — each backend's kernel table is indexed by it.
func (sp *Spec) ID() int { return sp.id }

// CacheKind is the kind's reserved qcache key space.
func (sp *Spec) CacheKind() qcache.Kind { return sp.kind }

// Validate range-checks the vertex operands against an n-vertex
// snapshot.
func (sp *Spec) Validate(a Args, n int) error {
	if sp.vertexA && a.A >= uint64(n) {
		return ErrBadVertex
	}
	if sp.vertexB && a.B >= uint64(n) {
		return ErrBadVertex
	}
	return nil
}

// Quick reports a kernel-free short-circuit answer, if the kind has one
// for these arguments.
func (sp *Spec) Quick(a Args) (qcache.Value, bool) {
	if sp.quick == nil {
		return qcache.Value{}, false
	}
	return sp.quick(a)
}

// CacheKey derives the request's cache key from the registered key
// function; ok=false means this request must not be cached.
func (sp *Spec) CacheKey(a Args) (qcache.Key, bool) { return sp.key(a) }

// Decode parses URL query parameters into the kind's Args.
func (sp *Spec) Decode(q url.Values) (Args, error) { return sp.decode(q) }

// Encode builds the kind's JSON reply from a Result.
func (sp *Spec) Encode(a Args, r Result) any { return sp.encode(a, r) }

var (
	specs  []*Spec
	byName = map[string]*Spec{}
)

func register(sp *Spec) {
	if _, dup := byName[sp.name]; dup {
		panic(fmt.Sprintf("qserve: duplicate query kind %q", sp.name))
	}
	for _, other := range specs {
		if other.kind == sp.kind {
			panic(fmt.Sprintf("qserve: query kinds %q and %q share cache kind %d",
				other.name, sp.name, sp.kind))
		}
	}
	sp.id = len(specs)
	specs = append(specs, sp)
	byName[sp.name] = sp
}

// Specs returns the registered query kinds in registration order. The
// returned slice is shared; callers must not mutate it.
func Specs() []*Spec { return specs }

// LookupSpec resolves a kind by wire name; nil when unknown.
func LookupSpec(name string) *Spec { return byName[name] }

// NumSpecs returns the number of registered kinds, for sizing kernel
// tables indexed by Spec.ID.
func NumSpecs() int { return len(specs) }

// The registered query kinds. Registration happens once, here, in a
// fixed order; everything else (HTTP routes, both backends' kernel
// tables) is derived from this list.
var (
	SpecBFS = &Spec{
		name: "bfs", kind: qcache.KindBFS, vertexA: true,
		key:    func(a Args) (qcache.Key, bool) { return qcache.Key{Kind: qcache.KindBFS, A: a.A}, true },
		decode: decodeSrc,
		encode: func(a Args, r Result) any { return BFSReplyFrom(a, r) },
	}

	SpecSSSP = &Spec{
		name: "sssp", kind: qcache.KindSSSP, vertexA: true,
		key: func(a Args) (qcache.Key, bool) {
			return qcache.Key{Kind: qcache.KindSSSP, A: a.A, B: a.B}, true
		},
		decode: decodeSSSP,
		encode: func(a Args, r Result) any { return SSSPReplyFrom(a, r) },
	}

	SpecConnected = &Spec{
		name: "connected", kind: qcache.KindConnected, vertexA: true, vertexB: true,
		quick: func(a Args) (qcache.Value, bool) {
			// u == v is connected at hop distance 0 on every path, live
			// or snapshot, without touching a kernel.
			if a.A == a.B {
				return qcache.Value{Flag: true}, true
			}
			return qcache.Value{}, false
		},
		key: func(a Args) (qcache.Key, bool) {
			// Live answers come from the mutating update-stream index:
			// they are not pinned to any snapshot and must never enter a
			// snapshot-keyed generation.
			return qcache.Key{Kind: qcache.KindConnected, A: a.A, B: a.B}, !a.Live
		},
		live: func(l *Live, a Args) qcache.Value {
			// Hops is -1 on the live path: the spanning forest proves
			// connectivity but its tree paths are not shortest paths.
			return qcache.Value{Flag: l.Connected(uint32(a.A), uint32(a.B)), N1: -1}
		},
		decode: decodeConnected,
		encode: func(a Args, r Result) any { return ConnReplyFrom(a, r) },
	}

	SpecComponents = &Spec{
		name: "components", kind: qcache.KindComponents,
		key:    func(a Args) (qcache.Key, bool) { return qcache.Key{Kind: qcache.KindComponents}, true },
		decode: decodeNone,
		encode: func(a Args, r Result) any { return ComponentsReplyFrom(r) },
	}

	SpecClustering = &Spec{
		name: "clustering", kind: qcache.KindClustering,
		key:    func(a Args) (qcache.Key, bool) { return qcache.Key{Kind: qcache.KindClustering}, true },
		decode: decodeNone,
		encode: func(a Args, r Result) any { return ClusteringReplyFrom(r) },
	}

	SpecKHop = &Spec{
		name: "khop", kind: qcache.KindKHop, vertexA: true,
		quick: func(a Args) (qcache.Value, bool) {
			// Within 0 hops lies the source alone, on every engine.
			return qcache.Value{N1: 1}, a.B == 0
		},
		key: func(a Args) (qcache.Key, bool) {
			return qcache.Key{Kind: qcache.KindKHop, A: a.A, B: a.B}, true
		},
		decode: decodeKHop,
		encode: func(a Args, r Result) any { return KHopReplyFrom(a, r) },
	}

	SpecPageRank = &Spec{
		name: "pagerank", kind: qcache.KindPageRank,
		key: func(a Args) (qcache.Key, bool) {
			return qcache.Key{Kind: qcache.KindPageRank, A: a.A}, true
		},
		decode: decodePageRank,
		encode: func(a Args, r Result) any { return PageRankReplyFrom(a, r) },
	}
)

func init() {
	for _, sp := range []*Spec{
		SpecBFS, SpecSSSP, SpecConnected, SpecComponents,
		SpecClustering, SpecKHop, SpecPageRank,
	} {
		register(sp)
	}
	singleKernels = make([]singleKernel, len(specs))
	for sp, k := range map[*Spec]singleKernel{
		SpecBFS:        (*scratchSet).bfsValue,
		SpecSSSP:       (*scratchSet).ssspValue,
		SpecConnected:  (*scratchSet).connValue,
		SpecComponents: (*scratchSet).componentsValue,
		SpecClustering: (*scratchSet).clusteringValue,
		SpecKHop:       (*scratchSet).khopValue,
		SpecPageRank:   (*scratchSet).pagerankValue,
	} {
		singleKernels[sp.id] = k
	}
}

// Query runs one registered kind against the backend's current
// snapshot (or the live index, for live-path arguments) with the one
// admission, validation, and caching flow every kind rides on every
// backend:
//
//	admit (queue-or-shed) → pin snapshot → validate vertex operands →
//	quick short-circuit → live index or cache lookup → kernel
//	(coalesced on miss).
//
// The uncacheable and cache-disabled paths call the kernel directly —
// no singleflight closure — preserving the allocation-free steady
// state; a cacheable miss runs the same kernel and pays only the
// closure and the entry it stores.
func (e *Executor) Query(sp *Spec, a Args) (Result, error) {
	if err := e.adm.Acquire(); err != nil {
		return Result{}, err
	}
	defer e.adm.Release()
	pin, epoch, gen := e.b.Pin(e.cache)
	// Unpin runs before the slot is released (defers run last-in first
	// out), so pooled pins never outnumber slots.
	defer e.b.Unpin(pin)
	if err := sp.Validate(a, e.n); err != nil {
		return Result{}, err
	}
	res := Result{Epoch: epoch}
	if val, ok := sp.Quick(a); ok {
		res.Val = val
		return res, nil
	}
	if a.Live && sp.live != nil {
		l := e.live
		if l == nil {
			return Result{}, ErrUnsupported
		}
		res.Val, res.Cache = sp.live(l, a), CacheLive
		return res, nil
	}
	k, cacheable := sp.key(a)
	if !cacheable || gen == nil {
		res.Val = e.b.Run(sp, pin, a)
		return res, nil
	}
	if val, ok := gen.Lookup(k); ok {
		res.Val, res.Cache = val, CacheHit
		return res, nil
	}
	// Kernels cannot fail, so neither can the generation's compute.
	res.Val, _ = gen.Do(k, func() (qcache.Value, error) {
		return e.b.Run(sp, pin, a), nil
	})
	res.Cache = CacheMiss
	return res, nil
}

// --- decode helpers (URL query parameters → Args) ---

func decodeNone(url.Values) (Args, error) { return Args{}, nil }

func decodeSrc(q url.Values) (Args, error) {
	src, err := formUint32(q, "src")
	if err != nil {
		return Args{}, err
	}
	return Args{A: uint64(src)}, nil
}

func decodeSSSP(q url.Values) (Args, error) {
	src, err := formUint32(q, "src")
	if err != nil {
		return Args{}, err
	}
	var delta int64
	if v := q.Get("delta"); v != "" {
		delta, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			return Args{}, badParam("delta", err)
		}
	}
	return Args{A: uint64(src), B: uint64(delta)}, nil
}

func decodeConnected(q url.Values) (Args, error) {
	u, err := formUint32(q, "u")
	if err != nil {
		return Args{}, err
	}
	v, err := formUint32(q, "v")
	if err != nil {
		return Args{}, err
	}
	a := Args{A: uint64(u), B: uint64(v)}
	switch live := q.Get("live"); live {
	case "", "0", "false":
	case "1", "true":
		a.Live = true
	default:
		return Args{}, badParam("live", fmt.Errorf("want 0/1/true/false, got %q", live))
	}
	return a, nil
}

func decodeKHop(q url.Values) (Args, error) {
	src, err := formUint32(q, "src")
	if err != nil {
		return Args{}, err
	}
	k, err := formUint32(q, "k")
	if err != nil {
		return Args{}, err
	}
	if k > maxKHop {
		k = maxKHop
	}
	return Args{A: uint64(src), B: uint64(k)}, nil
}

func decodePageRank(q url.Values) (Args, error) {
	tol := DefaultPageRankTol
	if v := q.Get("tol"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Args{}, badParam("tol", err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			return Args{}, badParam("tol", fmt.Errorf("want a finite tolerance > 0, got %v", f))
		}
		tol = f
	}
	if tol < minPageRankTol {
		tol = minPageRankTol
	}
	return Args{A: math.Float64bits(tol)}, nil
}

func formUint32(q url.Values, name string) (uint32, error) {
	v := q.Get(name)
	if v == "" {
		return 0, badParam(name, errors.New("missing"))
	}
	u, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return 0, badParam(name, err)
	}
	return uint32(u), nil
}

// The XReplyFrom builders project a kind-agnostic Result into the
// kind's typed wire reply. The typed convenience methods on both
// executors and the HTTP encode functions all go through them, so the
// wire format is defined in exactly one place; they are exported so
// the fleet executor's typed methods can build replies without the
// interface boxing Spec.Encode implies (which would cost an allocation
// on the cache-hit path).

// BFSReplyFrom builds the BFS wire reply.
func BFSReplyFrom(a Args, r Result) BFSReply {
	return BFSReply{Src: uint32(a.A), Reached: int(r.Val.N1), Levels: int(r.Val.N2), Epoch: r.Epoch}
}

// SSSPReplyFrom builds the SSSP wire reply.
func SSSPReplyFrom(a Args, r Result) SSSPReply {
	return SSSPReply{Src: uint32(a.A), Reached: int(r.Val.N1), MaxDist: r.Val.N2, Epoch: r.Epoch}
}

// ConnReplyFrom builds the st-connectivity wire reply.
func ConnReplyFrom(a Args, r Result) ConnReply {
	return ConnReply{U: uint32(a.A), V: uint32(a.B), Connected: r.Val.Flag,
		Hops: int32(r.Val.N1), Epoch: r.Epoch, Live: a.Live}
}

// ComponentsReplyFrom builds the components wire reply.
func ComponentsReplyFrom(r Result) ComponentsReply {
	return ComponentsReply{Components: int(r.Val.N1), LargestSize: int(r.Val.N2), Epoch: r.Epoch}
}

// ClusteringReplyFrom builds the clustering wire reply.
func ClusteringReplyFrom(r Result) ClusteringReply {
	return ClusteringReply{Triangles: r.Val.N1, Counted: int(r.Val.N2),
		AvgLocal: r.Val.F1, Epoch: r.Epoch}
}

// KHopReplyFrom builds the k-hop wire reply.
func KHopReplyFrom(a Args, r Result) KHopReply {
	return KHopReply{Src: uint32(a.A), K: uint32(a.B), Reached: int(r.Val.N1), Epoch: r.Epoch}
}

// PageRankReplyFrom builds the PageRank wire reply.
func PageRankReplyFrom(a Args, r Result) PageRankReply {
	return PageRankReply{Tol: math.Float64frombits(a.A), Iterations: int(r.Val.N1),
		MaxRank: r.Val.F1, SumRank: r.Val.F2, Epoch: r.Epoch}
}
