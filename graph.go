package snapdyn

import (
	"fmt"

	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/stream"
)

// VertexID identifies a vertex: an integer in [0, NumVertices).
type VertexID = edge.ID

// Edge is a directed arc with a time label.
type Edge = edge.Edge

// Update is one element of a structural update stream.
type Update = edge.Update

// Update operation kinds.
const (
	OpInsert = edge.Insert
	OpDelete = edge.Delete
)

// Representation selects the dynamic adjacency structure backing a Graph.
type Representation int

// Available representations. RepHybrid is the paper's recommended
// default: array storage for low-degree vertices, and above the degree
// threshold sorted blocks of packed 8-byte tuples in the treap's keyed
// order, in place of the paper's treaps. Its name stays
// "hybrid-arr-treap".
const (
	RepHybrid Representation = iota
	RepDynArr
	RepTreaps
	RepVpart
	RepEpart
)

// String implements fmt.Stringer.
func (r Representation) String() string {
	switch r {
	case RepHybrid:
		return "hybrid-arr-treap"
	case RepDynArr:
		return "dyn-arr"
	case RepTreaps:
		return "treaps"
	case RepVpart:
		return "vpart"
	case RepEpart:
		return "epart"
	default:
		return fmt.Sprintf("representation(%d)", int(r))
	}
}

// Options configure graph construction; use the With* helpers.
type Options struct {
	rep           Representation
	expectedEdges int
	degreeThresh  int
	seed          uint64
	undirected    bool
	batched       bool
}

// Option mutates construction options.
type Option func(*Options)

// WithRepresentation selects the adjacency structure.
func WithRepresentation(r Representation) Option {
	return func(o *Options) { o.rep = r }
}

// WithExpectedEdges sizes initial adjacency arrays to the paper's k·m/n
// heuristic. Dyn-arr, Vpart and Epart also pre-reserve arena capacity
// for m entries; the hybrid representation (the default) caps its first
// array at the degree threshold and reserves nothing, so its memory
// follows what is loaded.
func WithExpectedEdges(m int) Option {
	return func(o *Options) { o.expectedEdges = m }
}

// WithDegreeThreshold sets the hybrid representation's degree-thresh
// (default 32).
func WithDegreeThreshold(t int) Option {
	return func(o *Options) { o.degreeThresh = t }
}

// WithSeed seeds the treap priorities of RepTreaps for reproducible
// structures.
func WithSeed(seed uint64) Option {
	return func(o *Options) { o.seed = seed }
}

// Undirected makes every InsertEdge/DeleteEdge maintain both arcs.
func Undirected() Option {
	return func(o *Options) { o.undirected = true }
}

// Batched wraps the representation with semi-sorted batch application
// for ApplyUpdates.
func Batched() Option {
	return func(o *Options) { o.batched = true }
}

// Graph is a dynamic graph over a fixed vertex set [0, n).
// All mutation and query methods are safe for concurrent use.
//
// Every graph tracks the set of vertices whose adjacency changed since
// the last snapshot materialization (one atomic bit-set per update), so
// a SnapshotManager can rebuild snapshots incrementally; see Manager.
// One caveat follows from that pipeline: while a manager's background
// auto-refresher is running (SnapshotManager.StartAutoRefresh), apply
// mutations through the manager's gated ingest methods rather than
// the Graph directly, so they serialize with the background
// materialization.
type Graph struct {
	store      *dyngraph.Tracked
	undirected bool
}

// New creates a dynamic graph over n vertices.
func New(n int, opts ...Option) *Graph {
	o := Options{expectedEdges: 8 * n, seed: 1}
	for _, f := range opts {
		f(&o)
	}
	return &Graph{store: dyngraph.NewTracked(o.store(n, o.expectedEdges, o.seed)), undirected: o.undirected}
}

// store builds the selected representation over n vertices, sized for
// expectedEdges arcs, with RepTreaps' priorities drawn from seed.
func (o *Options) store(n, expectedEdges int, seed uint64) dyngraph.Store {
	var s dyngraph.Store
	switch o.rep {
	case RepDynArr:
		s = dyngraph.NewDynArr(n, expectedEdges)
	case RepTreaps:
		s = dyngraph.NewTreapStore(n, seed)
	case RepVpart:
		s = dyngraph.NewVpart(n, expectedEdges)
	case RepEpart:
		s = dyngraph.NewEpart(n, expectedEdges, 0)
	default:
		s = dyngraph.NewHybrid(n, expectedEdges, o.degreeThresh, seed)
	}
	if o.batched {
		s = dyngraph.NewBatched(s)
	}
	return s
}

// Representation returns the name of the backing structure.
func (g *Graph) Representation() string { return g.store.Name() }

// NumVertices returns the vertex-set size.
func (g *Graph) NumVertices() int { return g.store.NumVertices() }

// NumEdges returns the number of live arcs (an undirected edge counts as
// two arcs).
func (g *Graph) NumEdges() int64 { return g.store.NumEdges() }

// Undirected reports whether the graph maintains both arcs per edge.
func (g *Graph) Undirected() bool { return g.undirected }

// InsertEdge adds the edge u->v with time label t (and v->u for
// undirected graphs). Inserting the same edge again adds a parallel edge
// (multigraph semantics, as in the paper).
func (g *Graph) InsertEdge(u, v VertexID, t uint32) {
	g.store.Insert(u, v, t)
	if g.undirected && u != v {
		g.store.Insert(v, u, t)
	}
}

// DeleteEdge removes one edge u->v (and its mirror for undirected
// graphs), reporting whether the forward arc existed.
func (g *Graph) DeleteEdge(u, v VertexID) bool {
	ok := g.store.Delete(u, v)
	if g.undirected && u != v {
		g.store.Delete(v, u)
	}
	return ok
}

// DeleteEdgeAt removes the specific edge u->v with time label t (array
// representations scan to locate the exact tuple; treaps locate the
// neighbor in O(log d)). t == 0 acts as a wildcard.
func (g *Graph) DeleteEdgeAt(u, v VertexID, t uint32) bool {
	ok := g.store.DeleteTuple(u, v, t)
	if g.undirected && u != v {
		g.store.DeleteTuple(v, u, t)
	}
	return ok
}

// OutDegree returns the number of live arcs out of u.
func (g *Graph) OutDegree(u VertexID) int { return g.store.Degree(u) }

// HasEdge reports whether at least one live arc u->v exists.
func (g *Graph) HasEdge(u, v VertexID) bool { return g.store.Has(u, v) }

// Neighbors calls fn for every live arc out of u until fn returns false.
// fn must not mutate the graph for the same vertex.
func (g *Graph) Neighbors(u VertexID, fn func(v VertexID, t uint32) bool) {
	g.store.Neighbors(u, fn)
}

// ApplyUpdates applies a batch of updates with the given worker count
// (<= 0 means GOMAXPROCS). For undirected graphs the batch is mirrored
// first.
func (g *Graph) ApplyUpdates(workers int, batch []Update) {
	if g.undirected {
		batch = stream.Mirror(batch)
	}
	g.store.ApplyBatch(workers, batch)
}

// InsertEdges bulk-loads an edge list as a series of insertions.
func (g *Graph) InsertEdges(workers int, edges []Edge) {
	g.ApplyUpdates(workers, stream.Inserts(edges))
}

// Snapshot freezes the current adjacency into an immutable CSR view for
// the analysis kernels with a full rebuild. It must not run concurrently
// with mutations, and it does not consume the dirty set a Manager
// maintains — one-shot analysis and the managed pipeline compose freely.
// For repeated snapshots over a live update stream, Manager's
// incremental Refresh is much cheaper.
func (g *Graph) Snapshot(workers int) *Snapshot {
	return &Snapshot{g: csr.FromStore(workers, g.store), undirected: g.undirected}
}

// Stats returns degree-distribution summary statistics.
func (g *Graph) Stats() GraphStats { return dyngraph.Stats(g.store, 0) }

// GraphStats summarizes a graph's shape.
type GraphStats = dyngraph.GraphStats
