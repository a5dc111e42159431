package dyngraph

import (
	"testing"
	"unsafe"

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
		if got.IsHeavy(id) != want.IsHeavy(id) {
			t.Fatalf("%s: vertex %d treap mode %v, one at a time %v", stage, u, got.IsHeavy(id), want.IsHeavy(id))
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
// packed, direct-to-blocks path holds what one fed the same updates one
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
		if batched.HeavyVertexCount() == 0 {
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
// built the way snapserve builds its store, and those of its heavy side
// (the blocks in use and their index). The bounds are regression
// fences: the load holds 19.3 B/arc, 10.0 on the heavy side, most of
// the rest being per-vertex arrays and the unused tail of the arena's
// last chunk. With treaps on the heavy side it held 22.0; without
// presized treap node slices 23.9; and 52 when the store reserved 1.25×
// its expected edges up front, sized every first block by k·m/n alone
// and grew in 8 MiB arena chunks.
func TestHybridSizeBytes(t *testing.T) {
	const scale, maxBytesPerArc, maxHeavyBytesPerArc = 14, 20, 11
	ups := servedLoad(scale)
	s := NewHybrid(1<<scale, 2*len(ups), 0, 1)
	s.ApplyBatch(2, ups)
	if got := float64(s.SizeBytes()) / float64(s.NumEdges()); got > maxBytesPerArc {
		t.Fatalf("store holds %.1f B/arc, want at most %d", got, maxBytesPerArc)
	}
	var bytes, arcs int64
	s.eachHeavy(func(l *blockList) {
		arcs += int64(l.deg)
		bytes += int64(unsafe.Sizeof(*l)) + int64(cap(l.blocks))*int64(unsafe.Sizeof(hblock{})) + 8*int64(len(l.blocks)*s.bcap)
	})
	if got := float64(bytes) / float64(arcs); got > maxHeavyBytesPerArc {
		t.Fatalf("heavy side holds %.1f B/arc, want at most %d", got, maxHeavyBytesPerArc)
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

// churnBatches makes the served write stream at scale: k mirrored
// batches, each of size/2 fresh R-MAT inserts and the deletes of the
// inserts lag batches back, as the benchmark's churn generator makes
// them. The stream is a cycle: batch j deletes batch j-lag's inserts
// modulo k, so after the first lag batches it can be replayed forever
// at a steady arc count.
func churnBatches(scale, size, k, lag int) [][]edge.Update {
	fresh := make([][]edge.Edge, k)
	for j := range fresh {
		es, err := rmat.Generate(0, rmat.PaperParams(scale, size/2, 100, 0xc2b2ae3d27d4eb4f+uint64(j)*0x9e3779b97f4a7c15))
		if err != nil {
			panic(err)
		}
		fresh[j] = es
	}
	out := make([][]edge.Update, k)
	for j := range out {
		ups := stream.Inserts(fresh[j])
		for _, e := range fresh[(j-lag+k)%k] {
			ups = append(ups, edge.Update{Edge: e, Op: edge.Delete})
		}
		out[j] = stream.Mirror(ups)
	}
	return out
}

// BenchmarkHybridChurn times the served write path on the store: a
// scale-14 load, then 1024-update mirrored churn batches (R-MAT inserts
// plus the deletes of the inserts 8 batches back), one batch per op.
// It reports ns per directed update, the bytes per arc the store holds
// at the end, and allocations per batch.
func BenchmarkHybridChurn(b *testing.B) {
	const scale, size, k, lag = 14, 1024, 64, 8
	ups := servedLoad(scale)
	batches := churnBatches(scale, size, k, lag)
	s := NewHybrid(1<<scale, 2*len(ups), 0, 1)
	s.ApplyBatch(0, ups)
	for _, batch := range batches[:lag] { // their deletes find nothing yet
		s.ApplyBatch(0, batch)
	}
	updates := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		batch := batches[(lag+i)%k]
		s.ApplyBatch(0, batch)
		updates += len(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(updates), "ns/update")
	b.ReportMetric(float64(s.SizeBytes())/float64(s.NumEdges()), "B/arc")
}
