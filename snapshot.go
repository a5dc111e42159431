package snapdyn

import (
	"sync"

	"snapdyn/internal/cc"
	"snapdyn/internal/centrality"
	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/dynconn"
	"snapdyn/internal/reorder"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/subgraph"
	"snapdyn/internal/traversal"
)

// Snapshot is an immutable view of a graph, the substrate for the
// analysis kernels. Snapshots are safe for concurrent queries.
//
// A snapshot's storage layout is invisible at this API: managers built
// with ManagerWithLayout publish snapshots whose backing store may be a
// degree-ordered CSR (vertex ids permuted internally) or a
// gap-compressed adjacency, and every query accepts and reports
// original vertex ids — sources are translated on the way in, levels,
// parents, distances, and component labels on the way out, so results
// are identical across layouts. Queries without a layout-native kernel
// run over a lazily materialized (and cached) original-id CSR.
type Snapshot struct {
	g *csr.Graph // CSR arrays, in layout space for degree views; nil for compressed
	// cg is the gap-compressed payload under SnapshotCompressed; the
	// kernels that read arcs as spans (BFS, SSSP, components) decode it
	// directly.
	cg *compress.Graph
	// perm/inv translate degree views: layoutID = perm[origID],
	// origID = inv[layoutID]. Both nil for plain and compressed views.
	perm, inv reorder.Permutation
	// view is the published pipeline view this snapshot wraps (nil for
	// one-shot snapshots); the manager uses it as its cache identity.
	view *snapmgr.View
	// undirected records whether the source graph maintained mirror
	// arcs; engines that need symmetry (BFSDirectionOpt) consult it.
	undirected bool

	// baseOnce guards the lazy original-id CSR materialization backing
	// kernels without a layout-native path.
	baseOnce sync.Once
	baseG    *csr.Graph
}

// snapshotFromView wraps a published pipeline view.
func snapshotFromView(v *snapmgr.View, undirected bool) *Snapshot {
	return &Snapshot{g: v.G, cg: v.C, perm: v.Perm, inv: v.Inv, view: v, undirected: undirected}
}

// layoutPlain reports whether the snapshot is stored as an unpermuted
// CSR, the layout every kernel consumes natively.
func (s *Snapshot) layoutPlain() bool { return s.cg == nil && s.perm == nil }

// toLayout maps an original vertex id into the storage layout's id
// space (the identity except for degree views).
func (s *Snapshot) toLayout(u VertexID) VertexID {
	if s.perm != nil {
		return s.perm[u]
	}
	return u
}

// csrView returns an original-id CSR of the snapshot, materializing and
// caching one on first use for non-plain layouts: degree views apply
// the inverse permutation, compressed views decode (which sorts each
// adjacency by neighbor id — an equivalent arc multiset, possibly a
// different per-vertex arc order). Kernels without a layout-native path
// route through here, trading a one-time O(n + m) rebuild for exact
// plain-snapshot semantics.
func (s *Snapshot) csrView() *csr.Graph {
	if s.layoutPlain() {
		return s.g
	}
	s.baseOnce.Do(func() {
		if s.cg != nil {
			s.baseG = s.cg.ToCSR(0)
		} else {
			s.baseG = reorder.ApplyInto(0, s.g, s.inv, s.perm, nil)
		}
	})
	return s.baseG
}

// run hands a traversal the layout's arcs: the compressed graph, or the
// CSR (layout-space ids).
func (s *Snapshot) run(sources []uint32, opt traversal.Options, sc *traversal.Scratch, res *traversal.Result) *traversal.Result {
	if s.cg != nil {
		return traversal.RunStream(s.cg, sources, opt, sc, res)
	}
	return traversal.Run(s.g, sources, opt, sc, res)
}

// translateResultInto maps a layout-space traversal result back to
// original ids into out (fresh arrays when out is nil), returning the
// result callers should read. Plain and compressed layouts already
// produce original-id results and pass through untouched.
func (s *Snapshot) translateResultInto(res, out *traversal.Result) *traversal.Result {
	if s.perm == nil {
		return res
	}
	if out == nil {
		out = &traversal.Result{}
	}
	n := len(res.Level)
	if cap(out.Level) < n || cap(out.Parent) < n {
		out.Level = make([]int32, n)
		out.Parent = make([]uint32, n)
	} else {
		out.Level = out.Level[:n]
		out.Parent = out.Parent[:n]
	}
	out.Reached, out.Levels = res.Reached, res.Levels
	for v := 0; v < n; v++ {
		lv := res.Level[s.perm[v]]
		out.Level[v] = lv
		if lv != traversal.NotVisited {
			out.Parent[v] = s.inv[res.Parent[s.perm[v]]]
		} else {
			out.Parent[v] = 0
		}
	}
	return out
}

// NumVertices returns the vertex-set size.
func (s *Snapshot) NumVertices() int {
	if s.cg != nil {
		return s.cg.N
	}
	return s.g.N
}

// NumEdges returns the number of arcs in the snapshot.
func (s *Snapshot) NumEdges() int64 {
	if s.cg != nil {
		return s.cg.NumEdges()
	}
	return s.g.NumEdges()
}

// OutDegree returns u's out-degree.
func (s *Snapshot) OutDegree(u VertexID) int64 {
	if s.cg != nil {
		return s.cg.Degree(u)
	}
	return s.g.Degree(s.toLayout(u))
}

// Neighbors returns read-only views of u's adjacency and time labels.
// Non-plain layouts serve from the cached original-id CSR (see
// csrView), so the returned heads are always original ids.
func (s *Snapshot) Neighbors(u VertexID) (adj []uint32, ts []uint32) {
	return s.csrView().Neighbors(u)
}

// BFSResult holds a traversal outcome. Level[v] is the hop distance or
// NotVisited; Parent[v] is the BFS-tree parent.
type BFSResult = traversal.Result

// NotVisited marks unreached vertices in BFS results.
const NotVisited = traversal.NotVisited

// BFS runs a parallel level-synchronous breadth-first search from src.
func (s *Snapshot) BFS(workers int, src VertexID) *BFSResult {
	if s.layoutPlain() {
		return traversal.BFS(workers, s.g, src)
	}
	return s.BFSWith(src, BFSOptions{Workers: workers})
}

// BFSStrategy selects the frontier-expansion engine for option-driven
// traversals.
type BFSStrategy = traversal.Strategy

const (
	// BFSTopDown always pushes from the frontier; correct on any
	// snapshot.
	BFSTopDown = traversal.TopDown
	// BFSDirectionOpt switches between top-down push and bottom-up pull
	// by frontier edge mass. Requires an undirected snapshot; on
	// low-diameter small-world graphs it skips most edge inspections.
	//
	// Time-filtered traversals additionally require symmetric time
	// labels (the pull step inspects the reverse arc's label). Snapshots
	// of treap-backed stores (including the default hybrid) keep only
	// the most recent label per direction when parallel edges exist, so
	// a time-filtered traversal over such a snapshot can differ between
	// engines; use BFSTopDown there. Unfiltered traversals are safe on
	// any undirected snapshot.
	BFSDirectionOpt = traversal.DirectionOpt
)

// BFSOptions configures option-driven traversals. The zero value is a
// top-down BFS with GOMAXPROCS workers.
type BFSOptions struct {
	// Workers is the parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Strategy selects the engine; BFSDirectionOpt needs an undirected
	// snapshot.
	Strategy BFSStrategy
	// Alpha and Beta override the direction-switching thresholds
	// (<= 0 uses the defaults, 15 and 18).
	Alpha, Beta int64
}

func (o BFSOptions) traversalOptions(filter traversal.EdgeFilter) traversal.Options {
	return traversal.Options{
		Workers:  o.Workers,
		Strategy: o.Strategy,
		Alpha:    o.Alpha,
		Beta:     o.Beta,
		Filter:   filter,
	}
}

// demote downgrades BFSDirectionOpt to top-down on directed snapshots,
// where the pull step would silently miss vertices lacking mirror arcs.
func (s *Snapshot) demote(opt BFSOptions) BFSOptions {
	opt.Strategy = s.kernelStrategy(opt.Strategy)
	return opt
}

// BFSWith runs a BFS from src under the given options. On a directed
// snapshot BFSDirectionOpt falls back to top-down: the pull step
// requires mirror arcs.
func (s *Snapshot) BFSWith(src VertexID, opt BFSOptions) *BFSResult {
	opt = s.demote(opt)
	res := s.run([]uint32{s.toLayout(src)}, opt.traversalOptions(nil), nil, nil)
	return s.translateResultInto(res, nil)
}

// Traverser runs repeated traversals over one snapshot while reusing
// all internal buffers and the result arrays: after the first call,
// steady-state traversals allocate only a constant number of small
// fan-out objects regardless of graph size. The returned result is
// overwritten by the next call; a Traverser is not safe for concurrent
// use (create one per goroutine).
type Traverser struct {
	s       *Snapshot
	opt     BFSOptions
	scratch *traversal.Scratch
	res     traversal.Result
	// out is the original-id translation of res for reordered layouts,
	// buffer-reused like res itself.
	out traversal.Result
	src [1]uint32
}

// Traverser returns a reusable traversal engine over the snapshot. On a
// directed snapshot BFSDirectionOpt falls back to top-down: the pull
// step requires mirror arcs.
func (s *Snapshot) Traverser(opt BFSOptions) *Traverser {
	// The Traverser's results carry BFS-tree parents: an empty non-nil
	// Parent asks the engine to record them.
	return &Traverser{s: s, opt: s.demote(opt), scratch: traversal.NewScratch(),
		res: traversal.Result{Parent: []uint32{}}}
}

// BFS traverses from src, reusing the internal scratch and result.
func (t *Traverser) BFS(src VertexID) *BFSResult {
	t.src[0] = t.s.toLayout(src)
	res := t.s.run(t.src[:], t.opt.traversalOptions(nil), t.scratch, &t.res)
	return t.s.translateResultInto(res, &t.out)
}

// TemporalBFS traverses from src over arcs with time labels in [lo, hi],
// reusing the internal scratch and result.
func (t *Traverser) TemporalBFS(src VertexID, lo, hi uint32) *BFSResult {
	t.src[0] = t.s.toLayout(src)
	res := t.s.run(t.src[:],
		t.opt.traversalOptions(traversal.TimeWindow(lo, hi)), t.scratch, &t.res)
	return t.s.translateResultInto(res, &t.out)
}

// MultiBFS traverses from all sources simultaneously (each at level 0),
// reusing the internal scratch and result. Sources must be distinct.
// The degree layout translates the sources through an internal buffer,
// so the caller's slice is never modified.
func (t *Traverser) MultiBFS(sources []VertexID) *BFSResult {
	if t.s.perm != nil {
		lsrc := make([]uint32, len(sources))
		for i, u := range sources {
			lsrc[i] = t.s.perm[u]
		}
		res := t.s.run(lsrc, t.opt.traversalOptions(nil), t.scratch, &t.res)
		return t.s.translateResultInto(res, &t.out)
	}
	return t.s.run(sources, t.opt.traversalOptions(nil), t.scratch, &t.res)
}

// TemporalBFS runs BFS traversing only arcs with time labels in
// [lo, hi] — the paper's augmented BFS with a time-stamp check.
func (s *Snapshot) TemporalBFS(workers int, src VertexID, lo, hi uint32) *BFSResult {
	if s.layoutPlain() {
		return traversal.TemporalBFS(workers, s.g, src, traversal.TimeWindow(lo, hi))
	}
	res := s.run([]uint32{s.toLayout(src)},
		traversal.Options{Workers: workers, Filter: traversal.TimeWindow(lo, hi)}, nil, nil)
	return s.translateResultInto(res, nil)
}

// STConnected answers an st-connectivity query by traversal, returning
// reachability and hop distance (-1 if unreachable).
func (s *Snapshot) STConnected(workers int, u, v VertexID) (bool, int32) {
	if u == v {
		return true, 0
	}
	var res traversal.Result
	var cuts traversal.Cuts
	t := s.toLayout(v)
	s.run([]uint32{s.toLayout(u)}, traversal.Options{Workers: workers, Hooks: cuts.ST(&res, t)}, nil, &res)
	if res.Level[t] == traversal.NotVisited {
		return false, -1
	}
	return true, res.Level[t]
}

// STConnectedFast answers an st-connectivity query with bidirectional
// search: on low-diameter graphs it touches far fewer edges than a full
// BFS. The snapshot must be symmetric (undirected Graph).
func (s *Snapshot) STConnectedFast(u, v VertexID) (bool, int32) {
	return traversal.STConnectedBidirectional(s.csrView(), u, v)
}

// TemporalReachability computes the vertices reachable from src by
// time-respecting paths (strictly increasing labels, Kempe et al.),
// returning the minimum arrival label per vertex (^uint32(0) when
// unreachable) and the reached count.
func (s *Snapshot) TemporalReachability(src VertexID) (arrive []uint32, reached int) {
	return traversal.TemporalReachability(s.csrView(), src)
}

// TemporallyReachable reports whether a time-respecting path u -> v
// exists.
func (s *Snapshot) TemporallyReachable(u, v VertexID) bool {
	return traversal.TemporallyReachable(s.csrView(), u, v)
}

// Components labels weakly-connected components in parallel:
// comp[u] == comp[v] iff u and v are connected. Labels are canonical —
// each component is labeled by its minimum original vertex id — in
// every storage layout, so label arrays compare equal across layouts.
func (s *Snapshot) Components(workers int) []uint32 {
	switch {
	case s.cg != nil:
		// Compressed ids are original ids, and the labels are component
		// minimums.
		return cc.ComponentsArcs(workers, compress.Arcs{C: s.cg}, nil)
	case s.perm != nil:
		// Label in layout space, then canonicalize each component to its
		// minimum ORIGINAL id: ascending original-id scan records the
		// first original vertex seen per layout-space label.
		comp := cc.Components(workers, s.g)
		n := len(comp)
		out := make([]uint32, n)
		const unset = ^uint32(0)
		minOrig := make([]uint32, n)
		for i := range minOrig {
			minOrig[i] = unset
		}
		for v := 0; v < n; v++ {
			l := comp[s.perm[v]]
			if minOrig[l] == unset {
				minOrig[l] = uint32(v)
			}
		}
		for v := 0; v < n; v++ {
			out[v] = minOrig[comp[s.perm[v]]]
		}
		return out
	default:
		return cc.Components(workers, s.g)
	}
}

// ComponentCount returns the number of weakly-connected components.
func (s *Snapshot) ComponentCount(workers int) int {
	return cc.Count(s.Components(workers))
}

// LargestComponent returns a representative vertex of the largest
// weakly-connected component and its size (the smallest representative
// on ties). Labeling, census, and the max scan all run in parallel.
func (s *Snapshot) LargestComponent(workers int) (rep VertexID, size int) {
	return cc.Largest(workers, s.Components(workers))
}

// Connectivity builds the link-cut forest index over the snapshot: a
// spanning forest (parallel BFS per component) whose parent-pointer
// representation answers connectivity queries in O(diameter) hops.
// The snapshot should be symmetric (built from an undirected Graph);
// undirected snapshots build the forest with the direction-optimizing
// engine, directed ones fall back to top-down.
func (s *Snapshot) Connectivity(workers int) *Connectivity {
	return &Connectivity{f: dynconn.BuildStrategy(workers, s.csrView(), s.kernelStrategy(BFSDirectionOpt))}
}

// kernelStrategy demotes a requested engine to top-down on directed
// snapshots, where the bottom-up pull step would silently miss vertices
// lacking mirror arcs. The analysis kernels (connectivity forest,
// betweenness, closeness, stress) route their engine choice through
// here, so they inherit exactly the BFS facade's safety rule.
func (s *Snapshot) kernelStrategy(want BFSStrategy) BFSStrategy {
	if !s.undirected {
		return BFSTopDown
	}
	return want
}

// InducedByTime extracts the subgraph of arcs with time labels strictly
// inside (lo, hi), keeping the vertex set (the paper's induced subgraph
// kernel).
func (s *Snapshot) InducedByTime(workers int, lo, hi uint32) *Snapshot {
	return &Snapshot{
		g:          subgraph.InducedByEdges(workers, s.csrView(), subgraph.TimeInterval(lo, hi)),
		undirected: s.undirected,
	}
}

// InducedByVertices extracts the subgraph induced by the kept vertices.
func (s *Snapshot) InducedByVertices(workers int, keep []bool) *Snapshot {
	return &Snapshot{
		g:          subgraph.InducedByVertices(workers, s.csrView(), keep),
		undirected: s.undirected,
	}
}

// ActiveVertices returns the vertices incident to at least one arc with
// a time label in [lo, hi].
func (s *Snapshot) ActiveVertices(workers int, lo, hi uint32) []bool {
	return subgraph.VerticesInWindow(workers, s.csrView(), lo, hi)
}

// BCOptions configures betweenness (and stress) computation.
type BCOptions struct {
	// Temporal restricts traversal to temporal (label-increasing)
	// shortest paths.
	Temporal bool
	// Sources, when non-nil, lists traversal roots (approximate
	// betweenness with extrapolated scores); nil means exact.
	Sources []VertexID
	// Strategy selects the per-source traversal engine; the zero value
	// is top-down. BFSDirectionOpt needs an undirected snapshot (it is
	// demoted to top-down otherwise) and, combined with Temporal,
	// symmetric time labels — snapshots of treap-backed stores collapse
	// parallel-edge labels per direction, so use BFSTopDown for
	// temporal scores there (the same caveat as BFSOptions).
	Strategy BFSStrategy
}

// Betweenness computes (temporal) betweenness centrality scores.
func (s *Snapshot) Betweenness(workers int, opt BCOptions) []float64 {
	return centrality.Betweenness(workers, s.csrView(), centrality.Options{
		Temporal:  opt.Temporal,
		Sources:   opt.Sources,
		Normalize: opt.Sources != nil,
		Strategy:  s.kernelStrategy(opt.Strategy),
	})
}

// SampleSources draws k distinct random traversal roots, preferring
// non-isolated vertices.
func (s *Snapshot) SampleSources(k int, seed uint64) []VertexID {
	return centrality.SampleSources(s.csrView(), k, seed)
}

// Connectivity is a link-cut forest supporting constant-time structural
// updates and diameter-bounded connectivity queries. Queries may run
// concurrently with each other; Link/Cut require external serialization
// against queries.
type Connectivity struct {
	f *dynconn.Forest
}

// NewConnectivity returns a forest of n singleton trees.
func NewConnectivity(n int) *Connectivity { return &Connectivity{f: dynconn.NewForest(n)} }

// Connected reports whether u and v are in the same tree (two findroot
// walks).
func (c *Connectivity) Connected(u, v VertexID) bool { return c.f.Connected(u, v) }

// FindRoot returns the representative of v's tree.
func (c *Connectivity) FindRoot(v VertexID) VertexID { return c.f.FindRoot(v) }

// Link makes root v a child of w, merging two trees. It fails if v is
// not a root or the link would create a cycle.
func (c *Connectivity) Link(v, w VertexID) error { return c.f.Link(v, w) }

// Cut detaches v from its parent, splitting its subtree off.
func (c *Connectivity) Cut(v VertexID) bool { return c.f.Cut(v) }

// Query is one connectivity query.
type Query = dynconn.Query

// ConnectedBatch answers queries in parallel into results.
func (c *Connectivity) ConnectedBatch(workers int, queries []Query, results []bool) {
	c.f.ConnectedBatch(workers, queries, results)
}

// TreeHeight returns the maximum parent-walk length in the forest
// (diagnostic; O(n·height)).
func (c *Connectivity) TreeHeight() int { return c.f.Height() }
