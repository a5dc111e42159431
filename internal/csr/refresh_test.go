package csr

import (
	"fmt"
	"math"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/xrand"
)

// refreshStores lists every Store representation the facade can build,
// each wrapped in the dirty tracker the snapshot pipeline uses.
func refreshStores(n int) map[string]*dyngraph.Tracked {
	m := 8 * n
	return map[string]*dyngraph.Tracked{
		"dyn-arr":        dyngraph.NewTracked(dyngraph.NewDynArr(n, m)),
		"treaps":         dyngraph.NewTracked(dyngraph.NewTreapStore(n, 11)),
		"hybrid":         dyngraph.NewTracked(dyngraph.NewHybrid(n, m, 8, 12)),
		"vpart":          dyngraph.NewTracked(dyngraph.NewVpart(n, m)),
		"epart":          dyngraph.NewTracked(dyngraph.NewEpart(n, m, 0)),
		"batched-hybrid": dyngraph.NewTracked(dyngraph.NewBatched(dyngraph.NewHybrid(n, m, 8, 13))),
	}
}

// refreshDelta forces the vertex-granular delta path (no key log)
// whatever the enumerated fraction.
func refreshDelta(workers int, base *Graph, s storeView, dirty []uint32) *Graph {
	g, _ := refresh(workers, base, s, Delta{Dirty: dirty}, math.Inf(1))
	return g
}

func graphsEqual(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", tag, got.N, want.N)
	}
	for u := 0; u <= got.N; u++ {
		if got.Offsets[u] != want.Offsets[u] {
			t.Fatalf("%s: Offsets[%d] = %d, want %d", tag, u, got.Offsets[u], want.Offsets[u])
		}
	}
	if len(got.Adj) != len(want.Adj) {
		t.Fatalf("%s: %d arcs, want %d", tag, len(got.Adj), len(want.Adj))
	}
	for i := range got.Adj {
		if got.Adj[i] != want.Adj[i] || got.TS[i] != want.TS[i] {
			t.Fatalf("%s: arc %d = (%d@%d), want (%d@%d)",
				tag, i, got.Adj[i], got.TS[i], want.Adj[i], want.TS[i])
		}
	}
}

// randomBatch builds a mixed batch: inserts of fresh random edges plus
// deletions of edges known to be live (and a few misses).
func randomBatch(r *xrand.State, n, size int, live *[]edge.Edge, delFrac float64) []edge.Update {
	batch := make([]edge.Update, 0, size)
	for i := 0; i < size; i++ {
		if r.Float64() < delFrac && len(*live) > 0 {
			k := r.Intn(len(*live))
			e := (*live)[k]
			(*live)[k] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
			batch = append(batch, edge.Update{Edge: e, Op: edge.Delete})
			continue
		}
		e := edge.Edge{U: r.Uint32n(uint32(n)), V: r.Uint32n(uint32(n)), T: 1 + r.Uint32n(100)}
		*live = append(*live, e)
		batch = append(batch, edge.Update{Edge: e, Op: edge.Insert})
	}
	// A couple of deletions that miss (absent edges): they must not
	// perturb the snapshot.
	batch = append(batch, edge.Update{Edge: edge.Edge{U: 0, V: uint32(n - 1), T: 999}, Op: edge.Delete})
	return batch
}

// TestRefreshEquivalence asserts that after arbitrary insert/delete/
// mixed batches, Refresh over the flushed dirty set is arc-for-arc
// (adjacency and time label) identical to a fresh FromStore, for every
// store representation, chaining incrementally across rounds.
func TestRefreshEquivalence(t *testing.T) {
	const n, rounds, batchSize = 512, 6, 300
	for _, workers := range []int{1, 4} {
		for name, s := range refreshStores(n) {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				r := xrand.New(uint64(workers)*1000 + uint64(len(name)))
				var live []edge.Edge
				// Bootstrap insertions, then the first materialization.
				s.ApplyBatch(workers, randomBatch(r, n, 4*batchSize, &live, 0))
				s.Flush(nil)
				base := FromStore(workers, s)
				for round := 0; round < rounds; round++ {
					delFrac := 0.3
					if round == rounds-1 {
						delFrac = 0.95 // tombstone-heavy: delete almost everything
					}
					s.ApplyBatch(workers, randomBatch(r, n, batchSize, &live, delFrac))
					dirty := s.Flush(nil)
					got := refreshDelta(workers, base, s, dirty)
					want := FromStore(workers, s)
					graphsEqual(t, fmt.Sprintf("%s round %d (%d dirty)", name, round, len(dirty)), got, want)
					base = got
				}
			})
		}
	}
}

// TestRefreshAllDirty covers the degenerate ends: every vertex dirty
// (the exported Refresh falls back to FromStore past the threshold, and
// the delta path must still be exact when forced), and no vertex dirty
// (base is returned unchanged).
func TestRefreshAllDirty(t *testing.T) {
	const n = 256
	s := dyngraph.NewTracked(dyngraph.NewHybrid(n, 8*n, 8, 5))
	r := xrand.New(77)
	var live []edge.Edge
	s.ApplyBatch(2, randomBatch(r, n, 2048, &live, 0))
	s.Flush(nil)
	base := FromStore(2, s)

	// Touch every vertex.
	batch := make([]edge.Update, n)
	for u := 0; u < n; u++ {
		e := edge.Edge{U: uint32(u), V: uint32((u + 1) % n), T: 7}
		batch[u] = edge.Update{Edge: e, Op: edge.Insert}
	}
	s.ApplyBatch(2, batch)
	dirty := s.Flush(nil)
	if len(dirty) != n {
		t.Fatalf("dirty = %d vertices, want %d", len(dirty), n)
	}
	want := FromStore(2, s)
	graphsEqual(t, "all-dirty forced delta", refreshDelta(2, base, s, dirty), want)
	graphsEqual(t, "all-dirty fallback", Refresh(2, base, s, dirty), want)

	// Empty dirty set: the previous snapshot is shared, not copied.
	next := Refresh(2, want, s, nil)
	if next != want {
		t.Fatal("Refresh with empty dirty set must return base unchanged")
	}

	// Nil base: full rebuild.
	graphsEqual(t, "nil base", Refresh(2, nil, s, dirty), want)
}

// TestRefreshThreshold pins the fallback boundary.
func TestRefreshThreshold(t *testing.T) {
	const n = 1000
	s := dyngraph.NewTracked(dyngraph.NewDynArr(n, 4*n))
	for u := 0; u < n; u++ {
		s.Insert(uint32(u), uint32((u+7)%n), uint32(u+1))
	}
	s.Flush(nil)
	base := FromStore(1, s)

	over := int(RefreshMaxDirtyFrac*float64(n)) + 1
	batch := make([]edge.Update, over)
	for i := 0; i < over; i++ {
		batch[i] = edge.Update{Edge: edge.Edge{U: uint32(i), V: uint32((i + 3) % n), T: 42}, Op: edge.Insert}
	}
	s.ApplyBatch(1, batch)
	dirty := s.Flush(nil)
	got := Refresh(1, base, s, dirty)
	want := FromStore(1, s)
	graphsEqual(t, "over-threshold", got, want)
}

// patchRig chains forced-delta refreshes through the key log, checking
// each against a fresh FromStore.
type patchRig struct {
	t       *testing.T
	s       *dyngraph.Tracked
	base    *Graph
	workers int
}

func newPatchRig(t *testing.T, s *dyngraph.Tracked, workers int) *patchRig {
	s.Flush(nil)
	return &patchRig{t: t, s: s, base: FromStore(workers, s), workers: workers}
}

// refresh consumes the window, asserts the delta result equals
// FromStore, adopts it as the next base, and returns how it was built.
func (r *patchRig) refresh(tag string) RefreshStats {
	r.t.Helper()
	dirty, keys, logged := r.s.FlushKeys(nil, nil)
	got, st := refresh(r.workers, r.base, r.s, Delta{Dirty: dirty, Keys: keys, Logged: logged}, math.Inf(1))
	graphsEqual(r.t, tag, got, FromStore(r.workers, r.s))
	r.base = got
	return st
}

func ins(u, v, t uint32) edge.Update {
	return edge.Update{Edge: edge.Edge{U: u, V: v, T: t}, Op: edge.Insert}
}

func del(u, v, t uint32) edge.Update {
	return edge.Update{Edge: edge.Edge{U: u, V: v, T: t}, Op: edge.Delete}
}

// TestRefreshPatchEquivalence is TestRefreshEquivalence through the key
// log: every store representation, forced delta, chained rounds. The
// stores with keyed order must actually have been patched.
func TestRefreshPatchEquivalence(t *testing.T) {
	const n, rounds, batchSize = 512, 8, 300
	for _, workers := range []int{1, 4} {
		for name, s := range refreshStores(n) {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				r := xrand.New(uint64(workers)*977 + uint64(len(name)))
				var live []edge.Edge
				s.ApplyBatch(workers, randomBatch(r, n, 6*batchSize, &live, 0))
				rig := newPatchRig(t, s, workers)
				patched := 0
				for round := 0; round < rounds; round++ {
					delFrac := 0.3
					if round == rounds-1 {
						delFrac = 0.95
					}
					s.ApplyBatch(workers, randomBatch(r, n, batchSize, &live, delFrac))
					patched += rig.refresh(fmt.Sprintf("%s round %d", name, round)).Patched
				}
				keyed := name == "treaps" || name == "hybrid"
				if keyed && patched == 0 {
					t.Fatalf("%s: no vertex was ever patched", name)
				}
				if !keyed && patched != 0 {
					t.Fatalf("%s: %d vertices patched on a store without keyed order", name, patched)
				}
			})
		}
	}
}

// TestRefreshPatchCases pins the situations the patch path adds, each on
// a hybrid store (degree-thresh 8) whose vertex 1 is a treap-mode hub
// and whose vertex 2 starts in array mode.
func TestRefreshPatchCases(t *testing.T) {
	const n = 64
	setup := func(t *testing.T) (*dyngraph.Tracked, *patchRig) {
		s := dyngraph.NewTracked(dyngraph.NewHybrid(n, 8*n, 8, 3))
		var boot []edge.Update
		for v := uint32(10); v < 40; v++ {
			boot = append(boot, ins(1, v, v))
		}
		for v := uint32(10); v < 16; v++ {
			boot = append(boot, ins(2, v, 100+v))
		}
		s.ApplyBatch(2, boot)
		return s, newPatchRig(t, s, 2)
	}
	wantPatched := func(t *testing.T, st RefreshStats, patched int, enumerated int64) {
		t.Helper()
		if st.Patched != patched || st.EnumeratedArcs != enumerated {
			t.Fatalf("patched %d vertices, enumerated %d arcs; want %d and %d",
				st.Patched, st.EnumeratedArcs, patched, enumerated)
		}
	}

	t.Run("crossing degree-thresh", func(t *testing.T) {
		s, rig := setup(t)
		// Vertex 2 has an array span in base; three more arcs push it
		// past the threshold, so it is a treap now but must be
		// enumerated: its base span has per-tuple labels.
		s.ApplyBatch(2, []edge.Update{ins(2, 50, 1), ins(2, 12, 2), ins(2, 51, 3)})
		wantPatched(t, rig.refresh("migrated"), 0, 9)
		// From the next window on it is keyed at both ends.
		s.ApplyBatch(2, []edge.Update{ins(2, 5, 4), del(2, 50, 0)})
		wantPatched(t, rig.refresh("after migration"), 1, 0)
	})

	t.Run("duplicate tuples", func(t *testing.T) {
		s, rig := setup(t)
		// Three copies of 1->20 with different labels: multiplicity 3,
		// one label — the last insert's.
		s.Insert(1, 20, 7)
		s.Insert(1, 20, 9)
		wantPatched(t, rig.refresh("cnt 3"), 1, 0)
		adj, ts := rig.base.Neighbors(1)
		copies := 0
		for i, v := range adj {
			if v == 20 {
				copies++
				if ts[i] != 9 {
					t.Fatalf("copy of 1->20 labeled %d, want 9", ts[i])
				}
			}
		}
		if copies != 3 {
			t.Fatalf("%d copies of 1->20, want 3", copies)
		}
		s.Delete(1, 20)
		wantPatched(t, rig.refresh("cnt 2"), 1, 0)
	})

	t.Run("delete to zero and re-insert", func(t *testing.T) {
		s, rig := setup(t)
		s.Delete(1, 25)
		s.Insert(1, 25, 77)
		s.Delete(1, 30)
		wantPatched(t, rig.refresh("re-insert"), 1, 0)
	})

	t.Run("failed delete", func(t *testing.T) {
		s, rig := setup(t)
		// ApplyBatch logs conservatively: the key is in the log, the
		// vertex is dirty, nothing changed.
		s.ApplyBatch(2, []edge.Update{del(1, 5, 0)})
		before := rig.base
		wantPatched(t, rig.refresh("failed delete"), 1, 0)
		graphsEqual(t, "unchanged", rig.base, before)
	})

	t.Run("insert and delete in one batch", func(t *testing.T) {
		s, rig := setup(t)
		// The pair on 1->45 sits in different 1024-update chunks of the
		// concurrent apply path, so two workers race it; whichever
		// order it applied in, the read-back sees the outcome.
		batch := []edge.Update{ins(1, 45, 5)}
		for i := uint32(0); i < 1500; i++ {
			batch = append(batch, ins(3+i%8, 1, 6))
		}
		batch = append(batch, del(1, 45, 5))
		s.ApplyBatch(4, batch)
		st := rig.refresh("same key twice")
		if st.Patched < 1 {
			t.Fatal("vertex 1 was not patched")
		}
	})

	t.Run("log overflow", func(t *testing.T) {
		s, rig := setup(t)
		s.Insert(1, 41, 1)
		// 70 000 failed deletes overflow the 64 Ki log mid-window.
		flood := make([]edge.Update, 70000)
		for i := range flood {
			flood[i] = del(uint32(3+i%8), uint32(i%n), 0)
		}
		s.ApplyBatch(2, flood)
		s.Insert(1, 42, 2)
		dirty, keys, logged := s.FlushKeys(nil, nil)
		if logged || len(keys) != 0 {
			t.Fatalf("overflowed window: logged = %v with %d keys", logged, len(keys))
		}
		got, st := refresh(2, rig.base, s, Delta{Dirty: dirty, Keys: keys, Logged: logged}, math.Inf(1))
		graphsEqual(t, "overflowed window", got, FromStore(2, s))
		if st.Patched != 0 {
			t.Fatalf("patched %d vertices without a log", st.Patched)
		}
		rig.base = got
		// The next window logs again.
		s.Insert(1, 43, 3)
		wantPatched(t, rig.refresh("window after overflow"), 1, 0)
	})

	t.Run("single-op path only", func(t *testing.T) {
		s, rig := setup(t)
		s.Insert(1, 44, 8)
		if !s.Delete(1, 11) || !s.DeleteTuple(1, 12, 12) {
			t.Fatal("deletes of present arcs failed")
		}
		s.Insert(2, 60, 9) // array mode: enumerated
		wantPatched(t, rig.refresh("single ops"), 1, 7)
	})

	t.Run("base from a FromStore fallback", func(t *testing.T) {
		s, rig := setup(t)
		// Without a log every arc of both vertices would be enumerated,
		// past the fallback fraction: the exported entry point rebuilds
		// in full, and that rebuild is a base the next window patches.
		s.Insert(1, 46, 4)
		s.Insert(2, 61, 4)
		dirty := s.Flush(nil)
		got, st := RefreshDelta(2, rig.base, s, Delta{Dirty: dirty})
		graphsEqual(t, "fallback", got, FromStore(2, s))
		wantPatched(t, st, 0, got.NumEdges())
		rig.base = got
		s.Insert(1, 47, 5)
		wantPatched(t, rig.refresh("after fallback"), 1, 0)
	})
}

// TestRefreshAfterRacingFlush is the "never lost" contract with a key
// log: a window flushed while mutators are mid-batch is incomplete, and
// the snapshot cut from it may lag, but everything it missed is dirty
// and logged in the next window, whose refresh must be exact.
func TestRefreshAfterRacingFlush(t *testing.T) {
	const n, rounds = 256, 12
	for name, s := range map[string]*dyngraph.Tracked{
		"hybrid": dyngraph.NewTracked(dyngraph.NewHybrid(n, 8*n, 8, 21)),
		"treaps": dyngraph.NewTracked(dyngraph.NewTreapStore(n, 22)),
	} {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(uint64(len(name)))
			var live []edge.Edge
			s.ApplyBatch(2, randomBatch(r, n, 3000, &live, 0))
			s.Flush(nil)
			base := FromStore(2, s)
			for round := 0; round < rounds; round++ {
				batches := [][]edge.Update{
					randomBatch(r, n, 400, &live, 0.4),
					randomBatch(r, n, 400, &live, 0.4),
				}
				done := make(chan struct{})
				for _, b := range batches {
					go func() {
						for _, up := range b {
							if up.Op == edge.Insert {
								s.Insert(up.U, up.V, up.T)
							} else {
								s.DeleteTuple(up.U, up.V, up.T)
							}
						}
						done <- struct{}{}
					}()
				}
				// Flush somewhere inside the two streams.
				dirty, keys, logged := s.FlushKeys(nil, nil)
				<-done
				<-done
				base, _ = refresh(2, base, s, Delta{Dirty: dirty, Keys: keys, Logged: logged}, math.Inf(1))
				dirty, keys, logged = s.FlushKeys(nil, nil)
				got, _ := refresh(2, base, s, Delta{Dirty: dirty, Keys: keys, Logged: logged}, math.Inf(1))
				graphsEqual(t, fmt.Sprintf("round %d", round), got, FromStore(2, s))
				base = got
			}
		})
	}
}
