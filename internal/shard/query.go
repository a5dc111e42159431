package shard

import (
	"sync/atomic"

	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
	"snapdyn/internal/traversal"
)

// NotVisited marks an unreached vertex in a BFS level array — the same
// sentinel the single-shard traversal engine uses, so level arrays are
// directly comparable.
const NotVisited = int32(-1)

// Scratch is the reusable arena for scatter-gather queries over one
// fleet's pinned view set: the global level/distance/label arrays, the
// per-shard frontiers, the P×P frontier-exchange buckets, and the SSSP
// band loop with the delta chosen for the view set. Buffers are
// (re)sized on use for whatever shard count and vertex count the views
// present. A Scratch must not be shared by concurrent queries; the
// slices a query returns are overwritten by the next query on the same
// Scratch.
type Scratch struct {
	// BFS state: one frontier per shard (owned vertices only) and the
	// exchange matrix xbuf[s][d] = vertices shard s discovered that
	// shard d owns, swapped into cur[d] at each level barrier.
	level []int32
	cur   [][]uint32
	xbuf  [][][]uint32

	// Direction-optimizing BFS state, used only when pull is set (the
	// views are symmetric, so the arcs out of u in its owner shard are
	// also all of u's in-arcs): the published frontier bitmap of a pull
	// level, the per-shard degree totals of each level's discoveries,
	// the switch thresholds cached by view-set shape, and the number of
	// pull levels the last traversal ran.
	pull       bool
	bits       frontier.Bitmap
	foundEdges []int64
	thrN       int
	thrM       int64
	alpha      int64
	beta       int64
	pullLevels int

	// Components state.
	comp []uint32

	// Stats reduction slots, one per shard.
	arcs []int64
	maxd []int64

	sp ssspState
}

// NewScratch returns an empty arena; buffers are sized on first use.
// Its traversals are push-only: only an executor that knows its fleet
// is undirected enables pull levels.
func NewScratch() *Scratch { return &Scratch{} }

// ensureExchange sizes the frontier-exchange machinery for p shards.
func (sc *Scratch) ensureExchange(p int) {
	if len(sc.cur) != p {
		sc.cur = make([][]uint32, p)
		xb := make([][][]uint32, p)
		for s := range xb {
			xb[s] = make([][]uint32, p)
		}
		sc.xbuf = xb
		sc.foundEdges = make([]int64, p)
	}
}

func ensureInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// BFS runs a level-synchronous scatter-gather breadth-first search from
// src over the pinned per-shard views, returning the scratch-owned
// level array plus the reached-vertex and level counts. In a push
// level every shard expands its owned slice of the frontier against its
// local CSR and claims discoveries with a CAS on the shared level
// array; remote discoveries are bucketed by owner and swapped at the
// level barrier. On an undirected fleet the traversal is
// direction-optimizing: once the frontier's arc mass crosses the single
// store's alpha/beta rule, a pull level has each shard scan its own
// unvisited vertices' arcs for a parent in the published frontier —
// possible because the owner shard holds all of a vertex's arcs, and on
// a symmetric graph those are its in-arcs too. Directed fleets have no
// such reverse view and stay push-only. Level values are
// order-independent, so the returned array is identical to the
// single-shard engine's either way.
func (sc *Scratch) BFS(views []*csr.Graph, src uint32) ([]int32, int, int) {
	return sc.bfs(views, src, ^uint32(0), -1)
}

// STConnected reports whether target is reachable from src, and at how
// many hops, stopping at the first level barrier that claims target.
func (sc *Scratch) STConnected(views []*csr.Graph, src, target uint32) (hops int32, ok bool) {
	level, _, _ := sc.bfs(views, src, target, -1)
	h := level[target]
	return h, h != NotVisited
}

// KHop counts the vertices within k hops of src (src included): the
// scatter-gather BFS truncated at depth k, so arcs beyond the horizon
// are never expanded. The level array it leaves in the scratch matches
// the single-shard engine's stopped traversal bit for bit.
func (sc *Scratch) KHop(views []*csr.Graph, src uint32, k int32) int {
	_, reached, _ := sc.bfs(views, src, ^uint32(0), k)
	return reached
}

// bfs is the shared scatter-gather traversal core: target (when not
// ^0) stops it at the first barrier that claims the target, maxDepth
// (when >= 0) stops it after expanding that many levels.
func (sc *Scratch) bfs(views []*csr.Graph, src uint32, target uint32, maxDepth int32) ([]int32, int, int) {
	p := len(views)
	n := views[0].N
	sc.ensureExchange(p)
	sc.level = ensureInt32(sc.level, n)
	level := sc.level
	par.ForBlock(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			level[i] = NotVisited
		}
	})
	level[src] = 0
	cur := sc.cur
	for s := range cur {
		cur[s] = cur[s][:0]
	}
	cur[int(src)%p] = append(cur[int(src)%p], src)

	// Direction heuristic state, as in traversal's engine: the current
	// frontier's arc mass and the arcs still leaving unvisited vertices.
	var alpha, beta, curEdges, unexplored int64
	if sc.pull {
		var m int64
		alpha, beta, m = sc.thresholds(views)
		curEdges = views[int(src)%p].Degree(src)
		unexplored = m - curEdges
	}
	pull := false
	sc.pullLevels = 0

	reached, levels, size := 1, 0, 1
	for depth := int32(1); size > 0; depth++ {
		if maxDepth >= 0 && depth > maxDepth {
			break
		}
		levels++
		if sc.pull {
			if pull {
				pull = int64(size) >= int64(n)/beta
			} else {
				pull = curEdges > unexplored/alpha
			}
		}
		if pull {
			sc.pullLevels++
			sc.pullLevel(views, depth)
		} else {
			sc.pushLevel(views, depth)
		}
		// Gather at the barrier: shard d's next frontier is every
		// shard's bucket of d-owned discoveries.
		size = 0
		for d := 0; d < p; d++ {
			f := cur[d][:0]
			for s := 0; s < p; s++ {
				f = append(f, sc.xbuf[s][d]...)
				sc.xbuf[s][d] = sc.xbuf[s][d][:0]
			}
			cur[d] = f
			size += len(f)
		}
		reached += size
		if sc.pull {
			curEdges = 0
			for _, e := range sc.foundEdges {
				curEdges += e
			}
			unexplored -= curEdges
		}
		if target != ^uint32(0) && level[target] != NotVisited {
			break
		}
	}
	return level, reached, levels
}

// thresholds returns the direction-switch thresholds for the view set
// and its arc count. They come from traversal's degree-skew rule fed the
// fleet's shape (m summed over shards, max degree maxed — non-owned
// vertices have empty spans, so the per-shard maxima cover the global
// graph), and are re-derived, with the O(n) degree scan, only when the
// pinned set's (n, m) differs from the cached one.
func (sc *Scratch) thresholds(views []*csr.Graph) (alpha, beta, m int64) {
	n := views[0].N
	for _, g := range views {
		m += g.NumEdges()
	}
	if sc.alpha == 0 || sc.thrN != n || sc.thrM != m {
		var maxDeg int64
		for _, g := range views {
			maxDeg = max(maxDeg, g.MaxDegree())
		}
		sc.alpha, sc.beta = traversal.DeriveThresholdsShape(n, m, maxDeg)
		sc.thrN, sc.thrM = n, m
	}
	return sc.alpha, sc.beta, m
}

// pushLevel expands every shard's frontier top-down, claiming each
// discovery with a CAS and bucketing it by owner. On a pull-capable
// scratch it also totals the discoveries' degrees per shard (read from
// the owner's view), the mass the direction switch runs on.
func (sc *Scratch) pushLevel(views []*csr.Graph, depth int32) {
	p, level, mass := len(views), sc.level, sc.pull
	par.Workers(p, func(s int) {
		g := views[s]
		xb := sc.xbuf[s]
		var edges int64
		for _, u := range sc.cur[s] {
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			for a := lo; a < hi; a++ {
				v := g.Adj[a]
				if atomic.LoadInt32(&level[v]) == NotVisited &&
					atomic.CompareAndSwapInt32(&level[v], NotVisited, depth) {
					d := int(v) % p
					xb[d] = append(xb[d], v)
					if mass {
						edges += views[d].Degree(v)
					}
				}
			}
		}
		if mass {
			sc.foundEdges[s] = edges
		}
	})
}

// pullLevel runs one bottom-up level: the frontier is published into
// the shared bitmap, then shard s scans only the unvisited vertices it
// owns, in its own CSR, stopping at the first arc into the frontier.
// Each shard writes only its own vertices' levels, so no CAS is needed,
// and its discoveries land in its own next-frontier bucket xbuf[s][s].
func (sc *Scratch) pullLevel(views []*csr.Graph, depth int32) {
	p, n, level := len(views), views[0].N, sc.level
	bm := &sc.bits
	if bm.Len() != n {
		bm.Grow(n)
	}
	for _, f := range sc.cur {
		for _, u := range f {
			bm.Set(u)
		}
	}
	par.Workers(p, func(s int) {
		g := views[s]
		next := sc.xbuf[s][s]
		var edges int64
		for u := s; u < n; u += p {
			if level[u] != NotVisited {
				continue
			}
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			for a := lo; a < hi; a++ {
				if bm.Get(g.Adj[a]) {
					level[u] = depth
					next = append(next, uint32(u))
					edges += hi - lo
					break
				}
			}
		}
		sc.xbuf[s][s] = next
		sc.foundEdges[s] = edges
	})
	bm.Reset()
}

// Components labels weakly-connected components over the pinned views:
// cc's hook-and-compress over the view set, with one worker per shard.
// The labels converge to the component-minimum vertex id, identical to
// the single-shard kernel's. The label array is scratch-owned.
func (sc *Scratch) Components(views []*csr.Graph) []uint32 {
	sc.comp = cc.ComponentsOver(len(views), views, sc.comp)
	return sc.comp
}

// Stats summarizes a pinned view set by per-shard fan-out/reduce.
type Stats struct {
	Vertices  int
	Arcs      int64
	MaxDegree int64
}

// Stats fans a degree scan out across the shards and reduces arc count
// (sum) and max degree (max). Non-owned vertices have empty spans in
// every shard, so the per-shard maxima cover exactly the global graph.
func (sc *Scratch) Stats(views []*csr.Graph) Stats {
	p := len(views)
	if len(sc.arcs) != p {
		sc.arcs = make([]int64, p)
		sc.maxd = make([]int64, p)
	}
	par.Workers(p, func(s int) {
		sc.arcs[s] = views[s].NumEdges()
		sc.maxd[s] = views[s].MaxDegree()
	})
	st := Stats{Vertices: views[0].N}
	for s := 0; s < p; s++ {
		st.Arcs += sc.arcs[s]
		if sc.maxd[s] > st.MaxDegree {
			st.MaxDegree = sc.maxd[s]
		}
	}
	return st
}
