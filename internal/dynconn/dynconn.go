// Package dynconn maintains graph connectivity under edge insertions and
// deletions — the paper's "dynamic forest problem": keeping a spanning
// forest that changes over time so that path-existence queries never
// recompute from scratch.
//
// The structure combines the paper's two building blocks: a dynamic
// adjacency store holding the actual multigraph, and a Forest holding
// one spanning tree per component. The paper deliberately rejects
// self-adjusting (splay-based) link-cut trees for that forest: "a
// straightforward implementation ... would be to store with each vertex
// a pointer to its parent. This supports link, cut, and parent in
// constant time, but the findroot operation would require a worst-case
// traversal of O(n) vertices ... for low-diameter graphs such as
// small-world networks, this operation just requires a small number of
// hops, as the height of the tree is small." A Forest is that
// parent-pointer array plus child lists; Build constructs one for a
// static snapshot (parallel components, then one multi-source parallel
// BFS), and an Index keeps one up to date under churn.
//
// The index's forest never copies the adjacency; it reads it. There are
// two owners of that adjacency:
//
//   - a view (NewView): the store belongs to someone else — the served
//     store of a snapshot pipeline, which already holds every undirected
//     edge as two arcs. Its owner applies each batch to the store and
//     then hands the batch to Apply, which reconciles its keys.
//   - an owned store (New): InsertEdge and DeleteEdge mutate the index's
//     private store first, both arcs of the undirected edge, and then
//     reconcile the key exactly as a view does.
//
// Reconciling is one rule, applied per touched key {u, v} against the
// store's *current* state: a tree edge whose key is now absent is cut
// and the two halves are searched for an arc that rejoins them; a
// non-tree key that is present and joins two trees is linked; anything
// else changes nothing. The rule reads state, not the update that caused
// it, so batches may be reconciled in any order relative to the store
// applies around them — concurrent writers reconcile in whatever order
// their applies finish. Call a batch in flight from the start of its
// store apply to the end of its reconcile. What the rule keeps true
// whenever no reconcile is running: every present edge whose key no
// in-flight batch touches has both endpoints in one tree, and every
// tree edge that is absent belongs to an in-flight batch. Once every
// applied batch is reconciled (and the
// store's two arcs of each key agree again), the forest therefore spans
// exactly the store's components and every tree edge is live in it.
//
// The replacement search enumerates each half through the forest's own
// child lists — never through the store, whose arcs other writers may
// have removed — and scans the enumerated vertices' arcs for one that
// reaches the other half; arcs into third trees belong to in-flight
// batches and are left to their own reconcile. Both halves grow at once,
// always the one that has done less work, so a cut costs about twice the
// smaller half.
//
// Trees are linked by size (the smaller one is re-rooted), which keeps
// the giant component's root — and so every root walk — short.
// Queries are two findroot walks, exactly as in the static case.
package dynconn

import (
	"fmt"
	"math"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
)

// Reader is the part of an adjacency store the forest reads: every
// dyngraph.Store is one. Has and Neighbors must see both arcs of an
// undirected edge, (u,v) among u's arcs and (v,u) among v's.
type Reader interface {
	Has(u, v edge.ID) bool
	Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool)
}

// Neighbors enumerates u's arcs the way Reader.Neighbors does; Seed
// takes the seeding adjacency in this form.
type Neighbors func(u edge.ID, fn func(v edge.ID, t uint32) bool)

// Index maintains connectivity over an undirected dynamic multigraph.
// Methods are not safe for concurrent mutation; queries (Connected,
// Labels, ComponentCount) may run concurrently with each other but not
// with updates. A viewed store may be written concurrently with any of
// them.
type Index struct {
	g   Reader
	own dyngraph.Store // the private store (g itself) under New; nil for a view

	// f is the spanning forest; its child lists let a half of a cut
	// tree be enumerated without the store. It is a field, not
	// embedded, so Forest's raw Link and Cut, which know nothing of the
	// store, are not methods of the index.
	f Forest
	// size[r] is the vertex count of the tree rooted at r (read at roots
	// only).
	size []uint32
	// edges counts live undirected edges of an owned store (self-loops
	// count once); a view does not know it.
	edges int64

	// Search state, reused so a warm reconcile allocates nothing: one
	// queue per half, the work each half has done, the shared visit mark
	// (half s of the current search marks epoch+s), and the callback
	// handed to Neighbors, bound once in the constructor.
	queue [2][]uint32
	head  [2]int
	work  [2]int
	roots [2]uint32
	side  int
	hit   uint32 // the other half's endpoint of a rejoining arc, or noParent
	mark  []uint32
	epoch uint32
	visit func(v edge.ID, t uint32) bool
}

// New creates an index over n vertices that owns a private store of
// the hybrid representation, initially empty; use InsertEdge or Seed
// to populate it.
func New(n int) *Index {
	store := dyngraph.NewHybrid(n, 8*n, 0, 1)
	x := NewView(n, store)
	x.own = store
	return x
}

// NewView creates an index over n vertices that reads g and never
// mutates it: the forest starts empty (every vertex its own tree); Seed
// it from g's current contents, then Apply every batch the owner of g
// applies.
func NewView(n int, g Reader) *Index {
	x := &Index{
		g:    g,
		f:    *NewForest(n),
		size: make([]uint32, n),
		mark: make([]uint32, n),
	}
	x.reset()
	x.visit = x.visitArc
	return x
}

// reset makes every vertex its own tree.
func (x *Index) reset() {
	x.f.reset()
	for i := range x.size {
		x.size[i] = 1
	}
}

// NumVertices returns the vertex-set size.
func (x *Index) NumVertices() int { return x.f.Size() }

// NumEdges returns the number of live undirected edges in an owned
// store (0 for a view).
func (x *Index) NumEdges() int64 { return x.edges }

// TreeEdges returns the current spanning-forest size (diagnostic,
// O(n)).
func (x *Index) TreeEdges() int { return x.f.Size() - x.f.ComponentCount() }

// Connected reports whether u and v are currently connected.
func (x *Index) Connected(u, v edge.ID) bool { return x.f.Connected(u, v) }

// ComponentCount counts the forest's trees, isolated vertices included
// (diagnostic, O(n)).
func (x *Index) ComponentCount() int { return x.f.ComponentCount() }

// Labels writes each vertex's tree root into dst (grown to n): the
// forest's partition, for comparison against a static labelling.
func (x *Index) Labels(dst []uint32) []uint32 { return x.f.Labels(dst) }

// Seed rebuilds the forest with one BFS: every vertex not yet reached
// roots a tree and each vertex's parent is the vertex that discovered
// it. A view seeds from nb, which must enumerate the same arcs the
// store holds (a snapshot of it, translated to store ids); an owning
// index first loads every arc nb enumerates into its store as one
// undirected edge and then searches the store. The BFS is serial and
// reads only nb, not a CSR as Build does, so it seeds from reordered,
// compressed and fleet views alike.
func (x *Index) Seed(nb Neighbors) {
	var u edge.ID
	if x.own != nil {
		load := func(v edge.ID, t uint32) bool {
			x.insertArcs(u, v, t)
			return true
		}
		for i := range x.f.parent {
			u = edge.ID(i)
			nb(u, load)
		}
		nb = x.own.Neighbors
	}
	x.reset()
	ep := x.nextEpoch()
	q := x.queue[0][:0]
	discover := func(v edge.ID, _ uint32) bool {
		if x.mark[v] != ep {
			x.mark[v] = ep
			x.f.attach(v, u)
			q = append(q, v)
		}
		return true
	}
	for s := range x.f.parent {
		if x.mark[s] == ep {
			continue
		}
		x.mark[s] = ep
		q = append(q[:0], uint32(s))
		for i := 0; i < len(q); i++ {
			u = q[i]
			nb(u, discover)
		}
		x.size[s] = uint32(len(q))
	}
	x.queue[0] = q
}

// InsertEdge adds the undirected edge {u, v} at time t to an owned
// store, then reconciles it: if it joins two components it becomes a
// tree edge.
func (x *Index) InsertEdge(u, v edge.ID, t uint32) {
	x.insertArcs(u, v, t)
	x.reconcile(u, v)
}

// insertArcs stores both arcs of {u, v} (one for a self-loop).
func (x *Index) insertArcs(u, v edge.ID, t uint32) {
	x.own.Insert(u, v, t)
	x.edges++
	if u != v {
		x.own.Insert(v, u, t)
	}
}

// DeleteEdge removes one undirected edge {u, v} from an owned store and
// reconciles it, repairing the spanning forest if the last copy of a
// tree edge went. It reports whether the edge existed.
func (x *Index) DeleteEdge(u, v edge.ID) bool {
	if !x.own.Delete(u, v) {
		return false
	}
	x.edges--
	if u != v {
		x.own.Delete(v, u)
		x.reconcile(u, v)
	}
	return true
}

// Apply brings the forest up to date with one batch, in order. An
// owning index applies each update to its store as an undirected edge
// first; a view only reconciles the keys, the store's owner having
// applied the batch already.
func (x *Index) Apply(batch []edge.Update) {
	for i := range batch {
		up := &batch[i]
		switch {
		case x.own == nil:
			x.reconcile(up.U, up.V)
		case up.Op == edge.Delete:
			x.DeleteEdge(up.U, up.V)
		default:
			x.InsertEdge(up.U, up.V, up.T)
		}
	}
}

// reconcile brings the forest in line with the store's current state
// of the key {u, v}: a tree edge whose key is absent is cut and
// replaced if the store still joins its halves; a present non-tree key
// across two trees becomes a tree edge; anything else is already in
// line.
func (x *Index) reconcile(u, v edge.ID) {
	switch {
	case u == v:
	case x.f.parent[u] == v:
		if !x.g.Has(u, v) {
			x.cut(u)
		}
	case x.f.parent[v] == u:
		if !x.g.Has(u, v) {
			x.cut(v)
		}
	default:
		ru, rv := x.f.FindRoot(u), x.f.FindRoot(v)
		if ru != rv && x.g.Has(u, v) {
			x.link(u, v, ru, rv)
		}
	}
}

// link joins the trees rooted at ru and rv through the edge {u, v},
// re-rooting the smaller one.
func (x *Index) link(u, v, ru, rv edge.ID) {
	if x.size[ru] > x.size[rv] {
		u, v, ru, rv = v, u, rv, ru
	}
	x.hang(u, v)
	x.size[rv] += x.size[ru]
}

// hang re-roots u's tree at u and makes it v's child.
func (x *Index) hang(u, v edge.ID) {
	x.f.reroot(u)
	x.f.attach(u, v)
}

// nextEpoch reserves two fresh mark values (one per search half).
func (x *Index) nextEpoch() uint32 {
	if x.epoch > math.MaxUint32-4 {
		clear(x.mark)
		x.epoch = 0
	}
	x.epoch += 2
	return x.epoch
}

// cut removes the tree edge from child to its parent, then searches for
// an arc that rejoins the halves: half 0 is child's subtree, half 1 the
// rest of the tree. Each step expands one vertex — queues its children,
// scans its arcs — of the half that has done less work, so the search
// ends within about twice the smaller half's work: at the first arc
// into the other half, which is linked, or when a half runs out of
// vertices, which then stays split off.
func (x *Index) cut(child edge.ID) {
	top := x.f.FindRoot(x.f.parent[child])
	total := x.size[top]
	x.f.detach(child)

	ep := x.nextEpoch()
	x.roots = [2]uint32{child, top}
	x.hit = noParent
	for s, r := range x.roots {
		x.queue[s] = append(x.queue[s][:0], r)
		x.mark[r] = ep + uint32(s)
		x.head[s], x.work[s] = 0, 0
	}
	for {
		s := 0
		if x.work[1] < x.work[0] {
			s = 1
		}
		if x.head[s] == len(x.queue[s]) {
			n := uint32(len(x.queue[s]))
			x.size[x.roots[s]] = n
			x.size[x.roots[1-s]] = total - n
			return
		}
		w := x.queue[s][x.head[s]]
		x.head[s]++
		for c := x.f.child[w]; c != noParent; c = x.f.next[c] {
			x.mark[c] = ep + uint32(s)
			x.queue[s] = append(x.queue[s], c)
			x.work[s]++
		}
		x.side = s
		x.g.Neighbors(w, x.visit)
		if x.hit != noParent {
			x.hang(w, x.hit)
			x.size[x.roots[1-s]] = total
			return
		}
	}
}

// visitArc is the search's Neighbors callback: an arc from a vertex of
// half x.side to v. It stops the scan at an arc into the
// other half; arcs within the half or into a third tree are passed
// over.
func (x *Index) visitArc(v edge.ID, _ uint32) bool {
	s := x.side
	x.work[s]++
	switch x.mark[v] {
	case x.epoch + uint32(s):
		return true
	case x.epoch + uint32(1-s):
	default:
		if x.f.FindRoot(v) != x.roots[1-s] {
			return true
		}
	}
	x.hit = v
	return false
}

// CheckInvariants verifies structural sanity: the forest's own check
// (acyclic, child lists hold exactly the parent pointers), every root's
// size counts its tree, and every tree edge exists in the store. Used
// by tests; O(n·height).
func (x *Index) CheckInvariants() error {
	if err := x.f.check(); err != nil {
		return err
	}
	roots := x.f.Labels(nil)
	sizes := make([]uint32, len(roots))
	for _, r := range roots {
		sizes[r]++
	}
	for v, p := range x.f.parent {
		if p == noParent && x.size[v] != sizes[v] {
			return fmt.Errorf("dynconn: root %d records size %d, its tree has %d", v, x.size[v], sizes[v])
		}
		if p != noParent && !x.g.Has(edge.ID(v), p) {
			return fmt.Errorf("dynconn: tree edge (%d,%d) missing from store", v, p)
		}
	}
	return nil
}
