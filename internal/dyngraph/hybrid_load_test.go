package dyngraph

import (
	"testing"

	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// loadUpdates builds an all-insert load over n vertices whose groups sit
// below, at, one past and far past thresh, with repeated neighbors.
func loadUpdates(r *xrand.State, n, thresh int) []edge.Update {
	var ups []edge.Update
	for u := 0; u < n; u++ {
		k := r.Intn(6)
		switch u % 8 {
		case 0:
			k = 3 * thresh
		case 1:
			k = thresh
		case 2:
			k = thresh + 1
		}
		for range k {
			e := edge.Edge{U: edge.ID(u), V: r.Uint32n(uint32(2 * thresh)), T: r.Uint32n(100)}
			ups = append(ups, edge.Update{Edge: e, Op: edge.Insert})
		}
	}
	shuffle(r, ups)
	return ups
}

// churnUpdates mixes inserts and deletes per vertex: deletes of loaded
// tuples (exact label, other label, wildcard) and of absent neighbors,
// and insert runs that carry vertices near the threshold across it
// inside their group.
func churnUpdates(r *xrand.State, n, thresh int, loaded []edge.Update) []edge.Update {
	var ups []edge.Update
	for _, up := range loaded {
		switch r.Intn(4) {
		case 0:
			ups = append(ups, edge.Update{Edge: up.Edge, Op: edge.Delete})
		case 1:
			e := up.Edge
			e.T = edge.NoTime
			ups = append(ups, edge.Update{Edge: e, Op: edge.Delete})
		case 2:
			e := up.Edge
			e.T++
			ups = append(ups, edge.Update{Edge: e, Op: edge.Delete})
		}
	}
	for u := 0; u < n; u++ {
		for range r.Intn(thresh / 2) {
			e := edge.Edge{U: edge.ID(u), V: r.Uint32n(uint32(3 * thresh)), T: 100 + r.Uint32n(100)}
			op := edge.Insert
			if r.Intn(5) == 0 {
				op = edge.Delete
			}
			ups = append(ups, edge.Update{Edge: e, Op: op})
		}
	}
	shuffle(r, ups)
	return ups
}

func shuffle(r *xrand.State, ups []edge.Update) {
	for i := len(ups) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		ups[i], ups[j] = ups[j], ups[i]
	}
}

// applyOneByOne applies ups in order through Insert and DeleteTuple.
func applyOneByOne(s Store, ups []edge.Update) {
	for _, up := range ups {
		if up.Op == edge.Insert {
			s.Insert(up.U, up.V, up.T)
		} else {
			s.DeleteTuple(up.U, up.V, up.T)
		}
	}
}

// sameHybrids compares two hybrids vertex by vertex: the Neighbors
// sequence (labels, multiplicities, array insertion order), the mode
// and the arc count.
func sameHybrids(t *testing.T, stage string, got, want *Hybrid) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d arcs, one at a time %d", stage, got.NumEdges(), want.NumEdges())
	}
	for u := 0; u < got.NumVertices(); u++ {
		id := edge.ID(u)
		if got.IsTreap(id) != want.IsTreap(id) {
			t.Fatalf("%s: vertex %d treap mode %v, one at a time %v", stage, u, got.IsTreap(id), want.IsTreap(id))
		}
		g, w := CollectNeighbors(got, id), CollectNeighbors(want, id)
		if len(g) != len(w) {
			t.Fatalf("%s: vertex %d has %d tuples, one at a time %d", stage, u, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: vertex %d tuple %d = %v, one at a time %v", stage, u, i, g[i], w[i])
			}
		}
	}
}

// TestHybridBulkLoadMatchesInserts: a store loaded through ApplyBatch's
// presized, direct-to-treap path holds what one fed the same updates one
// Insert or DeleteTuple at a time holds, after an all-insert load and
// after a mixed batch on top of it; and the load recycles no arena
// entries, so no vertex got a block that was freed at once.
func TestHybridBulkLoadMatchesInserts(t *testing.T) {
	const n = 512
	for _, thresh := range []int{8, 32} {
		r := xrand.New(uint64(thresh))
		load := loadUpdates(r, n, thresh)
		churn := churnUpdates(r, n, thresh, load)
		if len(load) <= applyChunk || len(churn) <= applyChunk {
			t.Fatalf("thresh %d: batches of %d and %d updates do not take the grouped path", thresh, len(load), len(churn))
		}
		batched := NewHybrid(n, 4*len(load), thresh, 7)
		single := NewHybrid(n, 4*len(load), thresh, 7)

		batched.ApplyBatch(4, load)
		applyOneByOne(single, load)
		sameHybrids(t, "load", batched, single)
		if got := batched.arr.ar.Stats().EntriesRecycled; got != 0 {
			t.Fatalf("thresh %d: all-insert load recycled %d arena entries, want 0", thresh, got)
		}
		if batched.TreapVertexCount() == 0 {
			t.Fatalf("thresh %d: load put no vertex in treap mode", thresh)
		}

		batched.ApplyBatch(4, churn)
		applyOneByOne(single, churn)
		sameHybrids(t, "churn", batched, single)
	}
}

// servedLoad is the mirrored R-MAT load snapserve serves at scale.
func servedLoad(scale int) []edge.Update {
	n := 1 << scale
	edges, err := rmat.Generate(0, rmat.PaperParams(scale, 8*n, 100, 20090525))
	if err != nil {
		panic(err)
	}
	return stream.Mirror(stream.Inserts(edges))
}

// TestHybridSizeBytes pins the store's bytes per arc for a scale-14 load
// built the way snapserve builds its store. The bound is a regression
// fence: the load holds 22.0 B/arc. Without presized treap node slices
// it would hold 23.9, and it held 52 when the store reserved 1.25× its
// expected edges up front, sized every first block by k·m/n alone and
// grew in 8 MiB arena chunks.
func TestHybridSizeBytes(t *testing.T) {
	const scale, maxBytesPerArc = 14, 23
	ups := servedLoad(scale)
	s := NewHybrid(1<<scale, 2*len(ups), 0, 1)
	s.ApplyBatch(2, ups)
	if got := float64(s.SizeBytes()) / float64(s.NumEdges()); got > maxBytesPerArc {
		t.Fatalf("store holds %.1f B/arc, want at most %d", got, maxBytesPerArc)
	}
}

// BenchmarkHybridBulkLoad times a scale-14 load into an empty store and
// reports the bytes per arc it then holds.
func BenchmarkHybridBulkLoad(b *testing.B) {
	const scale = 14
	ups := servedLoad(scale)
	var s *Hybrid
	b.ResetTimer()
	for range b.N {
		s = NewHybrid(1<<scale, 2*len(ups), 0, 1)
		s.ApplyBatch(0, ups)
	}
	b.ReportMetric(float64(s.SizeBytes())/float64(s.NumEdges()), "B/arc")
}
