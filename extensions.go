package snapdyn

// Extensions beyond the paper's evaluated system, implementing its
// "future research" directions: compressed adjacency representations,
// vertex reordering for cache performance (degree order), incremental
// connectivity maintenance (the dynamic forest problem), and the
// remaining classic centrality indices (closeness, stress).

import (
	"snapdyn/internal/centrality"
	"snapdyn/internal/cluster"
	"snapdyn/internal/compress"
	"snapdyn/internal/dynconn"
	"snapdyn/internal/reorder"
	"snapdyn/internal/sssp"
	"snapdyn/internal/traversal"
)

// --- Compressed snapshots -------------------------------------------------

// CompressedSnapshot is an immutable gap-compressed adjacency structure
// (WebGraph-style varint deltas), trading decode time for memory
// footprint.
type CompressedSnapshot struct {
	g *compress.Graph
}

// Compress encodes the snapshot into compressed form in parallel.
func (s *Snapshot) Compress(workers int) *CompressedSnapshot {
	if s.cg != nil {
		return &CompressedSnapshot{g: s.cg}
	}
	return &CompressedSnapshot{g: compress.FromCSR(workers, s.csrView())}
}

// NumVertices returns the vertex-set size.
func (c *CompressedSnapshot) NumVertices() int { return c.g.N }

// NumEdges returns the arc count.
func (c *CompressedSnapshot) NumEdges() int64 { return c.g.NumEdges() }

// SizeBytes returns the compressed payload size.
func (c *CompressedSnapshot) SizeBytes() int64 { return c.g.SizeBytes() }

// CompressionRatio compares against the 8-byte-per-arc CSR encoding.
func (c *CompressedSnapshot) CompressionRatio() float64 { return c.g.CompressionRatio() }

// OutDegree returns u's arc count (one varint read, no decode scan).
func (c *CompressedSnapshot) OutDegree(u VertexID) int64 { return c.g.Degree(u) }

// Neighbors decodes u's arcs in increasing neighbor order.
func (c *CompressedSnapshot) Neighbors(u VertexID, fn func(v VertexID, t uint32) bool) {
	c.g.Neighbors(u, fn)
}

// Decompress restores an uncompressed snapshot (per-vertex arc order
// becomes sorted).
func (c *CompressedSnapshot) Decompress(workers int) *Snapshot {
	return &Snapshot{g: c.g.ToCSR(workers)}
}

// BFS traverses the compressed graph directly: the traversal engine
// decodes each adjacency block a run at a time, with no CSR
// materialization; see traversal.RunArcs.
func (c *CompressedSnapshot) BFS(workers int, src VertexID) (level []int32, reached int) {
	res := traversal.RunStream(c.g, []uint32{src}, traversal.Options{Workers: workers}, nil, nil)
	return res.Level, res.Reached
}

// --- Vertex reordering ----------------------------------------------------

// Permutation maps old vertex ids to new ones (newID = perm[oldID]).
type Permutation = reorder.Permutation

// ReorderByDegree returns the hubs-first relabeling permutation, the
// ordering the pipeline's SnapshotDegree layout maintains
// automatically.
func (s *Snapshot) ReorderByDegree() Permutation { return reorder.ByDegree(s.csrView()) }

// Relabel applies a permutation, returning the relabeled snapshot. The
// result is a raw relabeling: its ids ARE the new ids (unlike the
// managed reordered layouts, which translate at the query boundary).
func (s *Snapshot) Relabel(workers int, perm Permutation) *Snapshot {
	return &Snapshot{g: reorder.Apply(workers, s.csrView(), perm)}
}

// --- Incremental connectivity (dynamic forest) ----------------------------

// DynamicConnectivity maintains connectivity under edge insertions and
// deletions without snapshot rebuilds: a spanning forest (link-cut
// parent pointers) is repaired incrementally on each update. Not safe
// for concurrent mutation.
type DynamicConnectivity struct {
	x *dynconn.Index
}

// NewDynamicConnectivity creates an empty index over n vertices backed
// by the hybrid representation.
func NewDynamicConnectivity(n int) *DynamicConnectivity {
	return &DynamicConnectivity{x: dynconn.New(n)}
}

// InsertEdge adds the undirected edge {u, v} at time t.
func (d *DynamicConnectivity) InsertEdge(u, v VertexID, t uint32) { d.x.InsertEdge(u, v, t) }

// DeleteEdge removes one undirected edge {u, v}, repairing the spanning
// forest if needed, and reports whether the edge existed.
func (d *DynamicConnectivity) DeleteEdge(u, v VertexID) bool { return d.x.DeleteEdge(u, v) }

// Connected answers a connectivity query in O(tree height).
func (d *DynamicConnectivity) Connected(u, v VertexID) bool { return d.x.Connected(u, v) }

// NumEdges returns the live undirected edge count.
func (d *DynamicConnectivity) NumEdges() int64 { return d.x.NumEdges() }

// ComponentCount returns the number of connected components (O(n)).
func (d *DynamicConnectivity) ComponentCount() int { return d.x.ComponentCount() }

// --- Additional centrality indices -----------------------------------------

// ClosenessScores holds classic and harmonic closeness for one vertex.
type ClosenessScores = centrality.ClosenessScores

// Closeness computes closeness centrality for the listed vertices (one
// engine traversal each, partitioned among workers). Undirected
// snapshots traverse with the direction-optimizing engine; directed
// ones fall back to top-down.
func (s *Snapshot) Closeness(workers int, sources []VertexID) []ClosenessScores {
	return centrality.Closeness(workers, s.csrView(), sources, s.kernelStrategy(BFSDirectionOpt))
}

// Stress computes stress centrality (absolute shortest-path counts
// through each vertex); options as in Betweenness.
func (s *Snapshot) Stress(workers int, opt BCOptions) []float64 {
	return centrality.Stress(workers, s.csrView(), centrality.Options{
		Temporal:  opt.Temporal,
		Sources:   opt.Sources,
		Normalize: opt.Sources != nil,
		Strategy:  s.kernelStrategy(opt.Strategy),
	})
}

// --- Weighted shortest paths ------------------------------------------------

// InfDistance marks unreachable vertices in ShortestPaths results.
const InfDistance = sssp.Inf

// SSSPScratch is the reusable arena for repeated shortest-path runs: it
// caches the bucket width chosen for the last snapshot and every kernel
// buffer, all O(n), so steady-state SSSPWith calls allocate nothing,
// over one snapshot or across newly published ones. A scratch must not be shared by
// concurrent runs; the distance slice returned by a run using it is
// overwritten by the next.
type SSSPScratch = sssp.Scratch

// NewSSSPScratch returns an empty arena; buffers are sized on first use.
func NewSSSPScratch() *SSSPScratch { return sssp.NewScratch() }

// SSSPOptions configures a shortest-paths run. The zero value is a
// GOMAXPROCS-wide delta-stepping run with the heuristic bucket width and
// a throwaway scratch.
type SSSPOptions struct {
	// Workers is the parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Delta is the bucket width; <= 0 picks the heuristic (mean arc
	// weight over 2*sqrt(mean degree), at least 1). Each distance band
	// relaxes every arc of its vertices until none re-enters the band.
	Delta int64
	// Scratch, when non-nil, is reused across calls (see SSSPScratch).
	Scratch *SSSPScratch
}

// SSSPWith computes single-source shortest path distances under opt,
// treating each arc's time label as its non-negative weight (label 0 =
// free arc), using parallel delta-stepping straight over the snapshot's
// arcs. The result matches Dijkstra exactly;
// unreachable vertices hold InfDistance.
//
// Storage layouts are invisible here like everywhere else: every layout
// runs the same kernel with the same Delta and Scratch — compressed
// snapshots decode their blocks a run at a time, degree-ordered ones
// delta-step in layout space and translate the distances back — and
// the returned slice is always indexed by original vertex id.
func (s *Snapshot) SSSPWith(src VertexID, opt SSSPOptions) []int64 {
	return s.sssp(src, sssp.Options{Workers: opt.Workers, Delta: opt.Delta, Scratch: opt.Scratch})
}

// sssp runs the delta-stepping kernel over the layout's arcs.
func (s *Snapshot) sssp(src VertexID, opt sssp.Options) []int64 {
	if s.cg != nil {
		return sssp.RunArcs(compress.Arcs{C: s.cg}, src, opt)
	}
	return s.translateDistances(sssp.Run(s.g, s.toLayout(src), opt))
}

// translateDistances maps a layout-space distance array back to
// original ids (the identity for plain and compressed layouts).
func (s *Snapshot) translateDistances(dist []int64) []int64 {
	if s.perm == nil {
		return dist
	}
	out := make([]int64, len(dist))
	for v := range out {
		out[v] = dist[s.perm[v]]
	}
	return out
}

// ShortestPaths computes single-source shortest path distances treating
// each arc's time label as its non-negative weight (label 0 = free arc),
// using parallel delta-stepping. delta <= 0 picks a heuristic bucket
// width; the result matches Dijkstra exactly. It is SSSPWith with a
// throwaway scratch, so every call allocates the O(n) kernel buffers;
// for repeated sources use SSSPWith with a warm scratch, which
// thereafter allocates nothing.
func (s *Snapshot) ShortestPaths(workers int, src VertexID, delta int64) []int64 {
	return s.SSSPWith(src, SSSPOptions{Workers: workers, Delta: delta})
}

// ShortestPathsDijkstra computes the same distances with the sequential
// typed-heap Dijkstra baseline, for validation and benchmarking.
func (s *Snapshot) ShortestPathsDijkstra(src VertexID) []int64 {
	return sssp.Dijkstra(s.csrView(), src, sssp.LabelWeights)
}

// HopDistances computes unweighted (hop count) distances via the same
// machinery, for validation against BFS levels.
func (s *Snapshot) HopDistances(workers int, src VertexID) []int64 {
	return s.sssp(src, sssp.Options{Workers: workers, Delta: 1, Weights: sssp.UnitWeights})
}

// --- Small-world diagnostics -------------------------------------------------

// ClusteringCoefficients holds triangle counts and local clustering
// coefficients (see internal/cluster).
type ClusteringCoefficients = cluster.Coefficients

// Clustering computes per-vertex triangle counts and clustering
// coefficients over a symmetric snapshot.
func (s *Snapshot) Clustering(workers int) *ClusteringCoefficients {
	return cluster.Compute(workers, s.csrView())
}

// EstimateDiameter lower-bounds the diameter of the largest component by
// the double-sweep heuristic repeated over sampled starting vertices:
// BFS from a sample, then BFS again from the farthest vertex found. The
// returned value is exact for trees and a tight lower bound in practice
// on small-world graphs.
func (s *Snapshot) EstimateDiameter(workers, samples int, seed uint64) int32 {
	if samples <= 0 {
		samples = 4
	}
	srcs := s.SampleSources(samples, seed)
	var best int32
	for _, src := range srcs {
		res := traversal.BFS(workers, s.csrView(), src)
		far, fd := farthest(res)
		if fd > best {
			best = fd
		}
		res = traversal.BFS(workers, s.csrView(), far)
		if _, fd = farthest(res); fd > best {
			best = fd
		}
	}
	return best
}

func farthest(res *traversal.Result) (VertexID, int32) {
	var v VertexID
	var d int32
	for u, l := range res.Level {
		if l != traversal.NotVisited && l > d {
			d = l
			v = VertexID(u)
		}
	}
	return v, d
}
