package dyngraph

import (
	"sync"
	"testing"

	"snapdyn/internal/edge"
	"snapdyn/internal/xrand"
)

func TestHybridMigration(t *testing.T) {
	s := NewHybrid(4, 256, 8, 1)
	if s.DegreeThresh() != 8 {
		t.Fatalf("thresh = %d", s.DegreeThresh())
	}
	for v := uint32(0); v < 8; v++ {
		s.Insert(0, v, v)
	}
	if s.IsHeavy(0) {
		t.Fatal("vertex migrated below threshold")
	}
	s.Insert(0, 8, 8)
	if !s.IsHeavy(0) {
		t.Fatal("vertex did not migrate above threshold")
	}
	if s.Degree(0) != 9 {
		t.Fatalf("degree = %d, want 9", s.Degree(0))
	}
	for v := uint32(0); v < 9; v++ {
		if !s.Has(0, v) {
			t.Fatalf("lost edge 0->%d in migration", v)
		}
	}
	if s.HeavyVertexCount() != 1 {
		t.Fatalf("treap vertices = %d, want 1", s.HeavyVertexCount())
	}
}

func TestHybridMigrationPreservesTimestamps(t *testing.T) {
	s := NewHybrid(2, 64, 4, 2)
	for v := uint32(0); v < 10; v++ {
		s.Insert(0, v, 100+v)
	}
	got := map[edge.ID]uint32{}
	s.Neighbors(0, func(v edge.ID, ts uint32) bool {
		got[v] = ts
		return true
	})
	for v := uint32(0); v < 10; v++ {
		if got[v] != 100+v {
			t.Fatalf("timestamp of 0->%d = %d, want %d", v, got[v], 100+v)
		}
	}
}

func TestHybridDefaultThreshold(t *testing.T) {
	s := NewHybrid(2, 64, 0, 3)
	if s.DegreeThresh() != DefaultDegreeThresh {
		t.Fatalf("default thresh = %d, want %d", s.DegreeThresh(), DefaultDegreeThresh)
	}
}

func TestHybridDeleteBothModes(t *testing.T) {
	s := NewHybrid(4, 256, 8, 4)
	// Array-mode vertex.
	s.Insert(1, 10, 0)
	s.Insert(1, 11, 0)
	if !s.Delete(1, 10) || s.Has(1, 10) || s.Degree(1) != 1 {
		t.Fatal("array-mode delete wrong")
	}
	// Treap-mode vertex.
	for v := uint32(0); v < 20; v++ {
		s.Insert(2, v, 0)
	}
	if !s.IsHeavy(2) {
		t.Fatal("expected treap mode")
	}
	if !s.Delete(2, 5) || s.Has(2, 5) || s.Degree(2) != 19 {
		t.Fatal("treap-mode delete wrong")
	}
	if s.Delete(2, 5) {
		t.Fatal("double delete succeeded")
	}
	if s.NumEdges() != 1+19 {
		t.Fatalf("m = %d", s.NumEdges())
	}
}

func TestHybridDeletesStayBelowThreshold(t *testing.T) {
	// Deleting from an array-mode vertex never migrates it.
	s := NewHybrid(2, 64, 8, 5)
	for v := uint32(0); v < 6; v++ {
		s.Insert(0, v, 0)
	}
	for v := uint32(0); v < 6; v++ {
		s.Delete(0, v)
	}
	if s.IsHeavy(0) {
		t.Fatal("deletes caused migration")
	}
	if s.Degree(0) != 0 {
		t.Fatalf("degree = %d", s.Degree(0))
	}
}

func TestHybridConcurrentMigration(t *testing.T) {
	// Many workers hammer the same vertex across the migration boundary.
	const workers = 8
	const perWorker = 500
	s := NewHybrid(2, workers*perWorker, 32, 6)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Insert(0, edge.ID(w*perWorker+i), uint32(i))
			}
		}(w)
	}
	wg.Wait()
	if !s.IsHeavy(0) {
		t.Fatal("hot vertex should be in treap mode")
	}
	if s.Degree(0) != workers*perWorker {
		t.Fatalf("degree = %d, want %d", s.Degree(0), workers*perWorker)
	}
	if s.NumEdges() != workers*perWorker {
		t.Fatalf("m = %d", s.NumEdges())
	}
}

func TestHybridConcurrentMixed(t *testing.T) {
	const n = 64
	s := NewHybrid(n, 1<<14, 16, 7)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(uint64(w) + 100)
			for i := 0; i < 2000; i++ {
				u := edge.ID(r.Uint32n(n))
				v := edge.ID(r.Uint32n(128))
				switch {
				case r.Float64() < 0.7:
					s.Insert(u, v, uint32(i))
				default:
					s.Delete(u, v)
				}
				if i%64 == 0 {
					s.Degree(u)
					s.Has(u, v)
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for u := 0; u < n; u++ {
		total += int64(s.Degree(edge.ID(u)))
	}
	if total != s.NumEdges() {
		t.Fatalf("degree sum %d != live %d", total, s.NumEdges())
	}
}

func TestHybridNeighborsEarlyStopTreapMode(t *testing.T) {
	s := NewHybrid(2, 256, 4, 8)
	for v := uint32(0); v < 32; v++ {
		s.Insert(0, v, 0)
	}
	count := 0
	s.Neighbors(0, func(v edge.ID, _ uint32) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestHybridBatchOrderDeterministic: a batch spanning two concurrent
// stripes still applies each vertex's updates in batch order. Vertex 0
// sits at the threshold holding neighbor 9 twice (labels 1 and 2). The
// insert that migrates it to a treap is the last update of the first
// stripe and a delete of 0->9 labeled 2 the first of the second, so
// striped workers would run the delete first: on the array it removes
// the tuple labeled 2 and label 1 survives. In batch order the
// migration comes first (the duplicate collapses to multiplicity 2,
// label 2) and the keyed delete leaves one copy labeled 2.
func TestHybridBatchOrderDeterministic(t *testing.T) {
	const n, thresh = 64, 8
	for rep := 0; rep < 20; rep++ {
		s := NewHybrid(n, 4096, thresh, uint64(rep))
		s.Insert(0, 9, 1)
		s.Insert(0, 9, 2)
		for v := edge.ID(10); v < 16; v++ {
			s.Insert(0, v, 5)
		} // degree 8 = thresh: still an array
		var batch []edge.Update
		for i := 0; i < applyChunk-1; i++ {
			batch = append(batch, edge.Update{Edge: edge.Edge{U: edge.ID(1 + i%60), V: edge.ID(i % n), T: 7}, Op: edge.Insert})
		}
		batch = append(batch,
			edge.Update{Edge: edge.Edge{U: 0, V: 20, T: 6}, Op: edge.Insert},
			edge.Update{Edge: edge.Edge{U: 0, V: 9, T: 2}, Op: edge.Delete})
		for i := 0; i < 200; i++ {
			batch = append(batch, edge.Update{Edge: edge.Edge{U: edge.ID(1 + i%60), V: edge.ID(i % n), T: 8}, Op: edge.Insert})
		}
		s.ApplyBatch(4, batch)
		var labels []uint32
		s.Neighbors(0, func(v edge.ID, ts uint32) bool {
			if v == 9 {
				labels = append(labels, ts)
			}
			return true
		})
		if len(labels) != 1 || labels[0] != 2 {
			t.Fatalf("rep %d: 0->9 labels %v, want [2]: one vertex's updates applied out of batch order", rep, labels)
		}
	}
}

// TestHybridModeFollowsDegree: the representation is a function of the
// live degree, so a store that grew past the threshold and shrank back
// answers later updates exactly like one bulk-loaded with the same arcs
// (what recovery from a checkpoint dump builds). With treap-mode
// hysteresis the two diverge on a duplicated neighbor: the treap keeps
// one label per neighbor, the array one per tuple.
func TestHybridModeFollowsDegree(t *testing.T) {
	const thresh = 8
	grown := NewHybrid(4, 256, thresh, 1)
	for v := edge.ID(0); v <= thresh; v++ {
		grown.Insert(0, v, 10+v)
	}
	if !grown.IsHeavy(0) {
		t.Fatal("vertex did not migrate above the threshold")
	}
	if !grown.Delete(0, thresh) || grown.IsHeavy(0) {
		t.Fatal("vertex did not return to array mode at the threshold")
	}
	if grown.Degree(0) != thresh || grown.NumEdges() != thresh {
		t.Fatalf("degree %d, %d arcs after demotion, want %d", grown.Degree(0), grown.NumEdges(), thresh)
	}

	loaded := NewHybrid(4, 256, thresh, 2)
	for _, e := range CollectNeighbors(grown, 0) {
		loaded.Insert(e.U, e.V, e.T)
	}
	for _, s := range []*Hybrid{grown, loaded} {
		s.Insert(0, 3, 99)      // duplicate neighbor, new label
		s.DeleteTuple(0, 3, 99) // and that tuple gone again
	}
	got, want := CollectNeighbors(grown, 0), CollectNeighbors(loaded, 0)
	if len(got) != len(want) {
		t.Fatalf("grown-and-shrunk store has %d arcs, bulk-loaded one %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arc %d: grown-and-shrunk store %v, bulk-loaded one %v", i, got[i], want[i])
		}
	}
}
