// Package traversal implements the paper's level-synchronous parallel
// breadth-first search over CSR snapshots, including the degree-aware
// work partitioning used for graphs with unbalanced degree distributions
// and the time-stamp-filtered (temporal) variant used for dynamic
// analysis without auxiliary memory.
//
// The algorithm processes the frontier one level at a time (O(d) parallel
// phases for diameter d, optimal linear work). Within a level, work is
// partitioned by *edges*, not vertices: a prefix sum over frontier
// degrees lets each worker claim an equal slice of arcs, so a single
// high-degree hub cannot serialize a level — the "we process high-degree
// and low-degree vertices differently" optimization.
//
// Two frontier-expansion engines are provided (see Options and Run):
// the classic top-down push, and a direction-optimizing engine that
// switches to a bottom-up pull step once the frontier's edge mass
// dominates the unexplored edges — on low-diameter small-world graphs
// the pull step skips the vast majority of edge inspections. Passing a
// reusable Scratch arena and Result makes steady-state traversals
// allocation-free.
//
// The engine is a visitor-hook substrate (see Hooks): per-arc and
// per-level callbacks and an endpoint-aware arc filter let every
// BFS-shaped kernel in the repository — Brandes (temporal) betweenness
// and stress, closeness, spanning-forest construction for the link-cut
// index, st-connectivity and k-hop neighbourhoods — share this one
// level-synchronous loop instead of hand-rolling its own frontier code.
// Temporal reachability, whose labels must strictly increase along a
// path, is not a BFS: it is its own serial worklist (see
// TemporalReachability).
package traversal

import (
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/frontier"
)

// NotVisited marks unreached vertices in level and parent arrays.
const NotVisited = int32(-1)

// Result holds a BFS traversal outcome.
type Result struct {
	// Level[v] is the hop distance from the source, or NotVisited.
	Level []int32
	// Parent[v] is the BFS-tree parent, or the vertex itself for the
	// source, or undefined (check Level) for unreached vertices. It is
	// recorded only on request: a Result that Run allocates records it,
	// and a reused Result records it only if Parent is non-nil (set it
	// to an empty slice to ask); a nil Parent stays nil, and the
	// traversal holds and writes no parent array.
	Parent []uint32
	// Visited shadows Level as a bitmap: bit v is set iff Level[v] is
	// not NotVisited. The bottom-up step uses it to skip whole 64-vertex
	// words of finished vertices with one load; kernels may read it for
	// O(1) membership tests after a run.
	Visited *frontier.Bitmap
	// Reached counts visited vertices (including the source).
	Reached int
	// Levels counts frontier expansions (the BFS tree height + 1).
	Levels int
	// PullLevels counts the expansions that ran bottom-up.
	PullLevels int
}

// SizeBytes returns the bytes r's arrays retain: Level, Parent when it
// is recorded, and the Visited bitmap.
func (r *Result) SizeBytes() int64 {
	b := 4 * int64(cap(r.Level)+cap(r.Parent))
	if r.Visited != nil {
		b += 8 * int64(cap(r.Visited.Words()))
	}
	return b
}

// EdgeFilter restricts traversal to arcs it accepts. A nil filter
// accepts everything; TimeWindow restricts by time label.
type EdgeFilter func(t uint32) bool

// TimeWindow returns a filter accepting time labels in [lo, hi].
func TimeWindow(lo, hi uint32) EdgeFilter {
	return func(t uint32) bool { return t >= lo && t <= hi }
}

// BFS runs a parallel level-synchronous BFS from src over all arcs.
func BFS(workers int, g *csr.Graph, src edge.ID) *Result {
	return Run(g, []uint32{src}, Options{Workers: workers}, nil, nil)
}

// TemporalBFS runs BFS traversing only arcs whose time label the filter
// accepts: the paper's "augmented BFS with a check for time-stamps",
// which recomputes from scratch using no auxiliary memory beyond the
// visited map.
func TemporalBFS(workers int, g *csr.Graph, src edge.ID, filter EdgeFilter) *Result {
	return Run(g, []uint32{src}, Options{Workers: workers, Filter: filter}, nil, nil)
}

// MultiBFS runs a parallel BFS from all sources simultaneously (each at
// level 0), producing a spanning forest of the union of their reachable
// sets in Parent.
func MultiBFS(workers int, g *csr.Graph, sources []uint32) *Result {
	return Run(g, sources, Options{Workers: workers}, nil, nil)
}

// Cuts are the level-end hooks with which the BFS-shaped queries stop
// early: st-connectivity after the level that settles its target, and
// the k-hop neighbourhood after level k, so arcs past the cut are never
// expanded. Each hook is bound once per Cuts, so a pooled query arena
// hands the engine the same function value on every query and
// allocates no closure. The zero value is ready to use.
type Cuts struct {
	res     *Result
	target  uint32
	k       int32
	reached int
	st      func(int32, int) bool
	khop    func(int32, int) bool
}

// ST returns the hooks of an st-connectivity traversal writing res: it
// stops after the first level that settles target.
func (c *Cuts) ST(res *Result, target uint32) Hooks {
	if c.st == nil {
		c.st = c.stEnd
	}
	c.res, c.target = res, target
	return Hooks{OnLevelEnd: c.st}
}

func (c *Cuts) stEnd(int32, int) bool { return c.res.Level[c.target] == NotVisited }

// KHop returns the hooks of a single-source k-hop traversal: it stops
// after level k, counting the vertices within k hops (KHopReached).
func (c *Cuts) KHop(k int32) Hooks {
	if c.khop == nil {
		c.khop = c.khopEnd
	}
	c.k, c.reached = k, 1 // the source itself
	return Hooks{OnLevelEnd: c.khop}
}

func (c *Cuts) khopEnd(level int32, discovered int) bool {
	if level <= c.k {
		c.reached += discovered
	}
	return level < c.k
}

// KHopReached returns the number of vertices within k hops of the last
// KHop traversal's source, the source included.
func (c *Cuts) KHopReached() int { return c.reached }

// STConnectedBidirectional answers st-connectivity by expanding
// alternating frontiers from both endpoints (the strategy of the
// authors' MTA-2 st-connectivity study, paper reference [4]): on
// low-diameter graphs each side explores only about half the depth,
// touching far fewer edges than a full one-sided BFS. g must be
// symmetric. Returns reachability and the exact hop distance.
func STConnectedBidirectional(g *csr.Graph, s, t edge.ID) (bool, int32) {
	if s == t {
		return true, 0
	}
	n := g.N
	// side: 0 unvisited, 1 reached from s, 2 reached from t.
	side := make([]uint8, n)
	dist := make([]int32, n)
	side[s], side[t] = 1, 2
	fs := []uint32{uint32(s)}
	ft := []uint32{uint32(t)}
	var ds, dt int32
	best := int32(-1)
	// Keep expanding (smaller frontier first) until no path can beat the
	// best meeting found: any undiscovered s-t path is longer than
	// ds + dt + 1 once both depths are complete.
	for len(fs) > 0 && len(ft) > 0 && (best < 0 || ds+dt+1 < best) {
		expandS := len(fs) <= len(ft)
		var frontier []uint32
		var own, other uint8
		var depth int32
		if expandS {
			ds++
			frontier, own, other, depth = fs, 1, 2, ds
		} else {
			dt++
			frontier, own, other, depth = ft, 2, 1, dt
		}
		var next []uint32
		for _, u := range frontier {
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				switch side[v] {
				case 0:
					side[v] = own
					dist[v] = depth
					next = append(next, v)
				case other:
					if total := depth + dist[v]; best < 0 || total < best {
						best = total
					}
				}
			}
		}
		if expandS {
			fs = next
		} else {
			ft = next
		}
	}
	if best < 0 {
		return false, -1
	}
	return true, best
}
