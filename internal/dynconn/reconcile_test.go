package dynconn

import (
	"slices"
	"testing"

	"snapdyn/internal/dynconn/conntest"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// agree reports a broken forest invariant or the first vertex the
// forest and the store's components place differently.
func agree(x *Index, s dyngraph.Store) error {
	if err := x.CheckInvariants(); err != nil {
		return err
	}
	return conntest.SamePartition(x.Labels(nil), conntest.Labels(s))
}

// applyArcs applies updates to s the way a store's batch path does.
func applyArcs(s dyngraph.Store, batch []edge.Update) {
	for _, up := range batch {
		if up.Op == edge.Delete {
			s.DeleteTuple(up.U, up.V, up.T)
		} else {
			s.Insert(up.U, up.V, up.T)
		}
	}
}

// mirror returns the undirected form of one update: both arcs, one for
// a self-loop.
func mirror(op edge.Op, u, v, t uint32) []edge.Update {
	return stream.Mirror([]edge.Update{{Edge: edge.Edge{U: u, V: v, T: t}, Op: op}})
}

// TestReconcileOrderIndependent pins the state-based rule on the case
// a "first replacement wins" repair gets wrong. Batch A deletes tree
// edge 1-2, whose lower half {2,3} is still joined to the rest by 3-0;
// batch B inserts 3-4 to a singleton, and 4 precedes 0 among 3's arcs.
// Both batches reach the store before either is reconciled. Reconciling
// A first must rejoin {2,3} through 3-0 and leave 3-4 to B; linking the
// half to 4 instead would split {0,1} from {2,3,4} for good, because
// 3-0 is never touched again. Either reconcile order must end in one
// component.
func TestReconcileOrderIndependent(t *testing.T) {
	for _, order := range []string{"AB", "BA"} {
		s := dyngraph.NewHybrid(5, 16, 0, 1)
		x := NewView(5, s)
		for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}} {
			applyArcs(s, mirror(edge.Insert, e[0], e[1], 1))
			x.reconcile(e[0], e[1])
		}
		a := mirror(edge.Delete, 1, 2, 1)
		b := mirror(edge.Insert, 3, 4, 2)
		applyArcs(s, b)
		applyArcs(s, mirror(edge.Insert, 3, 0, 3))
		x.reconcile(3, 0) // a cycle edge: no forest change
		applyArcs(s, a)

		batches := map[byte][]edge.Update{'A': a, 'B': b}
		for i := range order {
			x.Apply(batches[order[i]])
		}
		if err := agree(x, s); err != nil {
			t.Fatalf("reconcile order %s: %v", order, err)
		}
		if c := x.ComponentCount(); c != 1 {
			t.Fatalf("reconcile order %s: %d components, want 1", order, c)
		}
	}
}

// chaosReader is a store that other writers race: before any read it
// may apply the next arc of some in-flight batch, so a replacement
// search sees the store change between the vertices it scans — the
// interleavings concurrent ingests produce.
type chaosReader struct {
	s       dyngraph.Store
	r       *xrand.State
	pending [][]edge.Update // per writer, arcs of its batch not yet in the store
}

func (c *chaosReader) step() bool {
	var open []int
	for w, p := range c.pending {
		if len(p) > 0 {
			open = append(open, w)
		}
	}
	if len(open) == 0 {
		return false
	}
	w := open[c.r.Intn(len(open))]
	applyArcs(c.s, c.pending[w][:1])
	c.pending[w] = c.pending[w][1:]
	return true
}

func (c *chaosReader) Has(u, v edge.ID) bool {
	if c.r.Uint32n(3) == 0 {
		c.step()
	}
	return c.s.Has(u, v)
}

func (c *chaosReader) Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool) {
	if c.r.Uint32n(3) == 0 {
		c.step()
	}
	c.s.Neighbors(u, fn)
}

// TestReconcileUnderRacingWriters drives a view forest from four
// writers, each ingesting batches one at a time the way a serving
// engine does — apply to the store, then reconcile — while the others'
// arcs land in random interleavings, also in the middle of a reconcile.
// Writers own disjoint key classes ((u+v) mod 4) but share every
// vertex, so a repair search crosses everyone's edges; reconciles run
// in whatever order the writers finish. The churn mixes parallel
// copies, deletes to zero and back inside and across batches, deletes
// of absent keys and self-loops. At quiesce the forest must partition
// the vertices exactly as the store does, with every tree edge live.
func TestReconcileUnderRacingWriters(t *testing.T) {
	const n, writers = 24, 4
	for seed := uint64(1); seed <= 400; seed++ {
		r := xrand.New(seed)
		s := dyngraph.NewHybrid(n, 64, 4, seed)
		c := &chaosReader{s: s, r: r, pending: make([][]edge.Update, writers)}
		x := NewView(n, c)
		keys := make([][][2]uint32, writers)
		key := func(w int) [2]uint32 {
			if len(keys[w]) > 0 && r.Intn(2) == 0 {
				return keys[w][r.Intn(len(keys[w]))]
			}
			u := r.Uint32n(n)
			return [2]uint32{u, (uint32(w)+4-u%4)%4 + 4*r.Uint32n(n/4)}
		}
		for i := 0; i < n; i++ { // a sparse start, seeded by BFS
			w := r.Intn(writers)
			k := key(w)
			applyArcs(s, mirror(edge.Insert, k[0], k[1], 0))
			keys[w] = append(keys[w], k)
		}
		x.Seed(s.Neighbors)

		batch := make([][]edge.Update, writers) // in flight, nil when idle
		for op := 0; op < 400; op++ {
			w := r.Intn(writers)
			switch {
			case batch[w] == nil: // start the writer's next batch
				var b []edge.Update
				ts := uint32(op + 1)
				for k := 1 + r.Intn(4); k > 0; k-- {
					kk := key(w)
					switch r.Intn(5) {
					case 0, 1: // insert: a parallel copy when the key is known
						b = append(b, mirror(edge.Insert, kk[0], kk[1], ts)...)
						keys[w] = append(keys[w], kk)
					case 2: // delete, possibly of an absent key
						b = append(b, mirror(edge.Delete, kk[0], kk[1], edge.NoTime)...)
					case 3: // delete to zero and back inside the batch
						b = append(b, mirror(edge.Delete, kk[0], kk[1], edge.NoTime)...)
						b = append(b, mirror(edge.Delete, kk[0], kk[1], edge.NoTime)...)
						b = append(b, mirror(edge.Insert, kk[0], kk[1], ts)...)
					default: // a self-loop in and out
						b = append(b, mirror(edge.Insert, kk[0], kk[0], ts)...)
						b = append(b, mirror(edge.Delete, kk[0], kk[0], edge.NoTime)...)
					}
				}
				batch[w], c.pending[w] = b, slices.Clone(b)
			case len(c.pending[w]) > 0:
				c.step()
			default: // the writer's commit returned: reconcile its batch
				x.Apply(batch[w])
				batch[w] = nil
			}
		}
		for w := range batch {
			for len(c.pending[w]) > 0 {
				c.step()
			}
			if batch[w] != nil {
				x.Apply(batch[w])
			}
		}
		if err := agree(x, s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReconcileZeroAlloc pins the view forest's steady state: once its
// queues are warm, reconciling a batch — tree-edge cuts with and without
// a replacement, links, no-ops — allocates nothing.
func TestReconcileZeroAlloc(t *testing.T) {
	const n = 64
	s := dyngraph.NewHybrid(n, 4*n, 0, 1)
	for u := uint32(0); u < n; u++ { // a ring of rings: cycles of 8 joined in a line
		if u%8 != 7 {
			applyArcs(s, mirror(edge.Insert, u, u+1, 1))
		} else {
			applyArcs(s, mirror(edge.Insert, u, u-7, 1))
		}
		if u%8 == 0 && u > 0 {
			applyArcs(s, mirror(edge.Insert, u-1, u, 1))
		}
	}
	x := NewView(n, s)
	x.Seed(s.Neighbors)
	var out, back []edge.Update
	for u := uint32(0); u+1 < n; u += 3 { // ring edges and the bridges between rings
		out = append(out, mirror(edge.Delete, u, u+1, edge.NoTime)...)
		back = append(back, mirror(edge.Insert, u, u+1, 1)...)
	}
	churn := func() {
		for _, b := range [][]edge.Update{out, back} {
			applyArcs(s, b)
			x.Apply(b)
		}
	}
	churn()
	if err := agree(x, s); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, churn); a != 0 {
		t.Fatalf("warm reconcile allocates %.1f objects per batch pair, want 0", a)
	}
	if err := agree(x, s); err != nil {
		t.Fatal(err)
	}
}
