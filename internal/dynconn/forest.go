package dynconn

import (
	"fmt"
	"slices"

	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/traversal"
)

// noParent marks a forest root in the parent array.
const noParent = ^uint32(0)

// Forest is a rooted forest over vertices [0, n) stored as parent
// pointers; an arc (u, parent[u]) is a tree edge. child/next/prev
// thread each vertex's children into a doubly linked list, so a subtree
// can be enumerated without any adjacency.
//
// Structural operations (Link, Cut) must be externally serialized with
// respect to each other and to queries; queries (FindRoot, Connected,
// Parent) are read-only and safe to run concurrently with each other —
// "the queries can be processed in parallel, as they only involve memory
// reads."
type Forest struct {
	parent, child, next, prev []uint32
}

// NewForest returns a forest of n singleton trees.
func NewForest(n int) *Forest {
	f := &Forest{
		parent: make([]uint32, n),
		child:  make([]uint32, n),
		next:   make([]uint32, n),
		prev:   make([]uint32, n),
	}
	f.reset()
	return f
}

// reset makes every vertex its own tree.
func (f *Forest) reset() {
	for _, a := range [][]uint32{f.parent, f.child, f.next, f.prev} {
		for i := range a {
			a[i] = noParent
		}
	}
}

// Size returns the number of vertices.
func (f *Forest) Size() int { return len(f.parent) }

// Parent returns v's parent and whether v has one.
func (f *Forest) Parent(v edge.ID) (edge.ID, bool) {
	p := f.parent[v]
	return p, p != noParent
}

// FindRoot walks parent pointers to the root of v's tree: O(height)
// memory reads — a linked-list traversal, fast in practice only because
// small-world BFS trees are shallow.
func (f *Forest) FindRoot(v edge.ID) edge.ID {
	for f.parent[v] != noParent {
		v = f.parent[v]
	}
	return v
}

// Connected reports whether u and v are in the same tree (two findroot
// operations).
func (f *Forest) Connected(u, v edge.ID) bool {
	return f.FindRoot(u) == f.FindRoot(v)
}

// Query is one connectivity query.
type Query struct{ U, V edge.ID }

// ConnectedBatch answers queries in parallel, writing results[i] for
// queries[i].
func (f *Forest) ConnectedBatch(workers int, queries []Query, results []bool) {
	par.ForDynamic(workers, len(queries), 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = f.Connected(queries[i].U, queries[i].V)
		}
	})
}

// Link creates an arc from root v to vertex w, merging v's tree into
// w's. It returns an error if v is not a root or if the link would create
// a cycle (v and w already connected).
func (f *Forest) Link(v, w edge.ID) error {
	if f.parent[v] != noParent {
		return fmt.Errorf("dynconn: link(%d,%d): %d is not a root", v, w, v)
	}
	if f.FindRoot(w) == v {
		return fmt.Errorf("dynconn: link(%d,%d) would create a cycle", v, w)
	}
	f.attach(v, w)
	return nil
}

// Cut deletes the arc from v to its parent, splitting v's subtree into
// its own tree. Cutting a root is a no-op returning false.
func (f *Forest) Cut(v edge.ID) bool {
	if f.parent[v] == noParent {
		return false
	}
	f.detach(v)
	return true
}

// attach makes root c a child of p.
func (f *Forest) attach(c, p uint32) {
	f.parent[c] = p
	h := f.child[p]
	f.next[c], f.prev[c] = h, noParent
	if h != noParent {
		f.prev[h] = c
	}
	f.child[p] = c
}

// detach makes c, which has a parent, a root.
func (f *Forest) detach(c uint32) {
	p, pr, nx := f.parent[c], f.prev[c], f.next[c]
	if pr != noParent {
		f.next[pr] = nx
	} else {
		f.child[p] = nx
	}
	if nx != noParent {
		f.prev[nx] = pr
	}
	f.parent[c] = noParent
}

// reroot makes v the root of its tree by reversing the parent pointers
// on the v-to-root path (O(height), and heights stay small on
// small-world components).
func (f *Forest) reroot(v edge.ID) {
	prev := noParent
	for cur := v; cur != noParent; {
		next := f.parent[cur]
		if next != noParent {
			f.detach(cur)
		}
		if prev != noParent {
			f.attach(cur, prev)
		}
		prev, cur = cur, next
	}
}

// Labels writes each vertex's tree root into dst (grown to n): the
// forest's partition, for comparison against a static labelling.
func (f *Forest) Labels(dst []uint32) []uint32 {
	dst = slices.Grow(dst[:0], len(f.parent))[:len(f.parent)]
	for v := range f.parent {
		dst[v] = f.FindRoot(edge.ID(v))
	}
	return dst
}

// ComponentCount counts the forest's trees, isolated vertices included
// (diagnostic, O(n)).
func (f *Forest) ComponentCount() int {
	c := 0
	for _, p := range f.parent {
		if p == noParent {
			c++
		}
	}
	return c
}

// Height returns the longest parent walk in the forest, in hops,
// computed the slow way (walk from every vertex); intended for tests
// and diagnostics only.
func (f *Forest) Height() int {
	h := 0
	for v := range f.parent {
		hops := 0
		for p := f.parent[v]; p != noParent; p = f.parent[p] {
			hops++
		}
		h = max(h, hops)
	}
	return h
}

// check verifies the forest's structure: every parent walk ends at a
// root within n hops (no cycle), and the child lists hold exactly the
// parent pointers. O(n·height).
func (f *Forest) check() error {
	n := len(f.parent)
	for v := range f.parent {
		hops := 0
		for p := f.parent[v]; p != noParent; p = f.parent[p] {
			if hops++; hops > n {
				return fmt.Errorf("dynconn: cycle through vertex %d", v)
			}
		}
	}
	listed := 0
	for p := range f.child {
		for c := f.child[p]; c != noParent; c = f.next[c] {
			if f.parent[c] != uint32(p) {
				return fmt.Errorf("dynconn: %d listed as a child of %d, parent %d", c, p, f.parent[c])
			}
			if listed++; listed > n {
				return fmt.Errorf("dynconn: child lists cycle")
			}
		}
	}
	if arcs := n - f.ComponentCount(); listed != arcs {
		return fmt.Errorf("dynconn: %d listed children, %d parent pointers", listed, arcs)
	}
	return nil
}

// Build constructs the forest for a graph snapshot: connected components
// are labeled in parallel, then a multi-source parallel BFS from each
// component's representative produces a spanning forest whose parent
// pointers become the link-cut structure. This mirrors the paper's
// "apply a lock-free, level-synchronous parallel BFS ... then run
// connected components to construct a forest of link-cut trees."
//
// g must be symmetric (both arcs of every undirected edge present, e.g.
// csr.FromEdges with undirected=true); otherwise vertices that are only
// weakly reachable stay singleton roots.
func Build(workers int, g *csr.Graph) *Forest {
	return BuildStrategy(workers, g, traversal.TopDown)
}

// BuildStrategy is Build with an explicit engine choice for the
// spanning-forest traversal: the direction-optimizing strategy lets the
// saturated middle levels of the forest BFS run as bottom-up pull steps,
// which is where most of the construction time goes on low-diameter
// graphs. The direction-optimizing strategy requires a symmetric g
// (which Build already assumes for coverage).
func BuildStrategy(workers int, g *csr.Graph, strategy traversal.Strategy) *Forest {
	f := NewForest(g.N)
	if g.N == 0 {
		return f
	}
	// One multi-source BFS with every component representative as a
	// root covers the whole graph in a single traversal.
	var roots []uint32
	for v, c := range cc.Components(workers, g) {
		if c == uint32(v) {
			roots = append(roots, uint32(v))
		}
	}
	res := traversal.Run(g, roots, traversal.Options{Workers: workers, Strategy: strategy}, nil, nil)
	// One serial pass threads each reached vertex onto its parent's
	// child list.
	for u, l := range res.Level {
		if l > 0 { // reached, not a root
			f.attach(uint32(u), res.Parent[u])
		}
	}
	return f
}
