// Package conntest is test support for live connectivity indexes: the
// batches of concurrent writers churning a graph, and the static oracle
// a live forest's partition is compared against once they quiesce.
package conntest

import (
	"fmt"

	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// Writer generates the batches of one of several concurrent writers.
// Writers own disjoint key classes — key {u, v} belongs to class
// (u+v) mod classes — but share every vertex, so their batches cross in
// the store and in the forest while each key's two arcs stay in step
// (two writers racing on one key could leave its arcs apart, and the
// store would no longer be undirected).
type Writer struct {
	r              *xrand.State
	n              uint32
	class, classes uint32
	keys           [][2]uint32 // keys this writer has inserted or was handed
	t              uint32
}

// NewWriter returns writer class of classes over n vertices (a
// multiple of classes). It starts out knowing the keys of initial in
// its class — the seeded graph, where most tree edges are.
func NewWriter(seed uint64, n, class, classes int, initial []edge.Edge) *Writer {
	w := &Writer{r: xrand.New(seed), n: uint32(n), class: uint32(class), classes: uint32(classes), t: 1 << 24}
	for _, e := range initial {
		if e.U != e.V && (e.U+e.V)%w.classes == w.class {
			w.keys = append(w.keys, [2]uint32{e.U, e.V})
		}
	}
	return w
}

// fresh draws a key of the writer's class.
func (w *Writer) fresh() [2]uint32 {
	u := w.r.Uint32n(w.n)
	return [2]uint32{u, (w.class+w.classes-u%w.classes)%w.classes + w.classes*w.r.Uint32n(w.n/w.classes)}
}

// known draws a key the writer has seen, whether or not it is still
// present.
func (w *Writer) known() [2]uint32 {
	if len(w.keys) == 0 {
		return w.fresh()
	}
	return w.keys[w.r.Intn(len(w.keys))]
}

// Batch returns the writer's next batch, mirrored as undirected serving
// ingests it. It mixes inserts of fresh keys and parallel copies of
// known ones, deletes of known keys (tree edges among them, some with a
// surviving copy, some already gone), deletes to zero and back inside
// the batch, deletes of keys never inserted, and self-loops.
func (w *Writer) Batch() []edge.Update {
	var b []edge.Update
	op := func(o edge.Op, k [2]uint32) {
		e := edge.Edge{U: k[0], V: k[1]}
		if o == edge.Insert {
			w.t++
			e.T = w.t
		}
		b = append(b, edge.Update{Edge: e, Op: o})
	}
	for i := 1 + w.r.Intn(8); i > 0; i-- {
		switch w.r.Intn(10) {
		case 0, 1, 2:
			k := w.fresh()
			op(edge.Insert, k)
			w.keys = append(w.keys, k)
		case 3:
			op(edge.Insert, w.known())
		case 4, 5, 6:
			op(edge.Delete, w.known())
		case 7:
			k := w.known()
			op(edge.Delete, k)
			op(edge.Delete, k)
			op(edge.Insert, k)
		case 8:
			op(edge.Delete, w.fresh())
		default:
			u := w.r.Uint32n(w.n)
			op(edge.Insert, [2]uint32{u, u})
			if w.r.Intn(2) == 0 {
				op(edge.Delete, [2]uint32{u, u})
			}
		}
	}
	return stream.Mirror(b)
}

// Labels returns the component labels (cc) of the union of the stores'
// arcs, each store cut to CSR by csr.FromStore: the partition a live
// forest over those stores must reproduce at quiesce. A fleet passes
// every shard's store.
func Labels(stores ...dyngraph.Store) []uint32 {
	n := stores[0].NumVertices()
	var arcs []edge.Edge
	for _, s := range stores {
		g := csr.FromStore(1, s)
		for u := 0; u < g.N; u++ {
			adj, _ := g.Neighbors(edge.ID(u))
			for _, v := range adj {
				arcs = append(arcs, edge.Edge{U: uint32(u), V: v})
			}
		}
	}
	return cc.Components(1, csr.FromEdges(1, n, arcs, false))
}

// SamePartition reports the first vertex at which two labellings
// disagree about the partition (labels themselves may differ).
func SamePartition(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("conntest: %d labels, want %d", len(got), len(want))
	}
	fwd, back := map[uint32]uint32{}, map[uint32]uint32{}
	for v := range got {
		g, w := got[v], want[v]
		if x, ok := fwd[g]; ok && x != w {
			return fmt.Errorf("conntest: vertex %d shares a live tree with vertices of component %d but lies in %d", v, x, w)
		}
		if x, ok := back[w]; ok && x != g {
			return fmt.Errorf("conntest: vertex %d lies in one component with vertices of live tree %d but is in tree %d", v, x, g)
		}
		fwd[g], back[w] = w, g
	}
	return nil
}
