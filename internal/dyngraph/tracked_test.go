package dyngraph

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"snapdyn/internal/edge"
)

func TestTrackedMarksMutations(t *testing.T) {
	s := NewTracked(NewDynArr(64, 256))
	if s.DirtyCount() != 0 {
		t.Fatalf("fresh store dirty count = %d, want 0", s.DirtyCount())
	}
	s.Insert(3, 4, 1)
	s.Insert(3, 5, 2)
	s.Insert(10, 3, 3)
	if got := s.DirtyCount(); got != 2 {
		t.Fatalf("dirty count = %d, want 2 (vertices, not mutations)", got)
	}
	if d := s.Dirty(nil); len(d) != 2 || d[0] != 3 || d[1] != 10 {
		t.Fatalf("Dirty = %v, want [3 10]", d)
	}

	got := s.Flush(nil)
	if len(got) != 2 || got[0] != 3 || got[1] != 10 {
		t.Fatalf("Flush = %v, want [3 10]", got)
	}
	if s.DirtyCount() != 0 {
		t.Fatalf("dirty count after flush = %d, want 0", s.DirtyCount())
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", s.Epoch())
	}

	// Deleting an absent edge must not dirty the vertex; deleting a
	// present one must.
	if s.Delete(20, 21) {
		t.Fatal("delete of absent edge reported success")
	}
	if s.DirtyCount() != 0 {
		t.Fatalf("failed delete dirtied a vertex: %v", s.Dirty(nil))
	}
	if !s.DeleteTuple(3, 4, 1) {
		t.Fatal("delete of present tuple failed")
	}
	if d := s.Flush(nil); len(d) != 1 || d[0] != 3 {
		t.Fatalf("Flush after delete = %v, want [3]", d)
	}
}

func TestTrackedApplyBatchMarksSources(t *testing.T) {
	for _, mk := range []func() Store{
		func() Store { return NewDynArr(128, 512) },
		func() Store { return NewBatched(NewHybrid(128, 512, 4, 7)) },
		func() Store { return NewVpart(128, 512) },
	} {
		s := NewTracked(mk())
		batch := []edge.Update{
			{Edge: edge.Edge{U: 1, V: 2, T: 5}, Op: edge.Insert},
			{Edge: edge.Edge{U: 7, V: 2, T: 5}, Op: edge.Insert},
			{Edge: edge.Edge{U: 1, V: 9, T: 6}, Op: edge.Insert},
			{Edge: edge.Edge{U: 50, V: 1, T: 6}, Op: edge.Delete}, // no-op delete
		}
		s.ApplyBatch(2, batch)
		d := s.Flush(nil)
		want := []uint32{1, 7, 50} // batch marking is conservative
		if len(d) != len(want) {
			t.Fatalf("%s: Flush = %v, want %v", s.Name(), d, want)
		}
		for i := range want {
			if d[i] != want[i] {
				t.Fatalf("%s: Flush = %v, want %v", s.Name(), d, want)
			}
		}
	}
}

func TestTrackedConcurrentMarking(t *testing.T) {
	const n = 1 << 12
	s := NewTracked(NewDynArr(n, 8*n))
	var wg sync.WaitGroup
	workers := 8
	per := n / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				u := edge.ID(w*per + i)
				s.Insert(u, (u+1)%n, uint32(i+1))
			}
		}(w)
	}
	wg.Wait()
	if got := s.DirtyCount(); got != n {
		t.Fatalf("dirty count = %d, want %d", got, n)
	}
	d := s.Flush(nil)
	if len(d) != n {
		t.Fatalf("flush returned %d vertices, want %d", len(d), n)
	}
	if !sort.SliceIsSorted(d, func(i, j int) bool { return d[i] < d[j] }) {
		t.Fatal("flush output not sorted")
	}
	if s.DirtyCount() != 0 {
		t.Fatalf("dirty count after flush = %d, want 0", s.DirtyCount())
	}
}

func TestTrackedKeyLog(t *testing.T) {
	s := NewTracked(NewHybrid(64, 256, 4, 1))
	s.Insert(9, 3, 1)
	s.Insert(2, 7, 1)
	s.Insert(9, 3, 2) // same key twice: one log entry after compaction
	s.Insert(9, 1, 3)
	if s.Delete(5, 5) {
		t.Fatal("delete of absent edge reported success")
	}
	s.ApplyBatch(1, []edge.Update{
		{Edge: edge.Edge{U: 2, V: 7, T: 4}, Op: edge.Delete},
		{Edge: edge.Edge{U: 30, V: 31, T: 4}, Op: edge.Delete}, // misses; logged anyway
	})
	dirty, keys, logged := s.FlushKeys(nil, nil)
	if !logged {
		t.Fatal("small window reported an incomplete log")
	}
	if want := []uint32{2, 9, 30}; !slices.Equal(dirty, want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	want := []uint64{pack(2, 7), pack(9, 1), pack(9, 3), pack(30, 31)}
	if !slices.Equal(keys, want) {
		t.Fatalf("keys = %x, want %x", keys, want)
	}

	// The flush reset the window; buffers are reused from the start.
	s.Insert(4, 4, 1)
	dirty, keys, logged = s.FlushKeys(dirty[:0], keys[:0])
	if !logged || !slices.Equal(dirty, []uint32{4}) || !slices.Equal(keys, []uint64{pack(4, 4)}) {
		t.Fatalf("second window: dirty %v keys %x logged %v", dirty, keys, logged)
	}
	if _, keys, logged = s.FlushKeys(nil, nil); !logged || len(keys) != 0 {
		t.Fatalf("empty window: %d keys, logged %v", len(keys), logged)
	}
}

func TestTrackedKeyLogOverflow(t *testing.T) {
	const n = 1 << 10
	s := NewTracked(NewDynArr(n, 4*keyLogCap))
	fill := func(k int) {
		batch := make([]edge.Update, k)
		for i := range batch {
			batch[i] = edge.Update{Edge: edge.Edge{U: uint32(i % n), V: uint32(i / n), T: 1}, Op: edge.Insert}
		}
		s.ApplyBatch(2, batch)
	}

	// Exactly at the cap the log is still complete.
	fill(keyLogCap)
	dirty, keys, logged := s.FlushKeys(nil, nil)
	if !logged || len(keys) != keyLogCap || len(dirty) != n {
		t.Fatalf("at cap: %d keys, %d dirty, logged %v", len(keys), len(dirty), logged)
	}

	// One past it, from either path, drops the log for the whole
	// window — later records included — but never the dirty set.
	fill(keyLogCap)
	s.Insert(1, 2, 3)
	s.ApplyBatch(1, []edge.Update{{Edge: edge.Edge{U: 5, V: 6, T: 1}, Op: edge.Insert}})
	dirty, keys, logged = s.FlushKeys(dirty[:0], keys[:0])
	if logged || len(keys) != 0 || len(dirty) != n {
		t.Fatalf("overflowed: %d keys, %d dirty, logged %v", len(keys), len(dirty), logged)
	}

	// A batch larger than the cap overflows in one step; a plain Flush
	// resets the window just the same.
	fill(keyLogCap + 1)
	if got := len(s.Flush(nil)); got != n {
		t.Fatalf("plain flush returned %d dirty vertices, want %d", got, n)
	}
	s.Insert(1, 2, 3)
	if _, keys, logged = s.FlushKeys(nil, nil); !logged || len(keys) != 1 {
		t.Fatalf("window after overflow: %d keys, logged %v", len(keys), logged)
	}
}

// TestTrackedFlushRacesMutators hammers FlushKeys against in-flight
// single-op and batch mutators. Key and mark of one mutation land in
// the same window, so every flushed key's vertex is in that flush's
// dirty set — a logged key can never leave its vertex clean — and the
// union of all windows covers exactly what was mutated.
func TestTrackedFlushRacesMutators(t *testing.T) {
	const n, mutators, perMutator = 1 << 10, 4, 4000
	s := NewTracked(NewHybrid(n, 8*n, 8, 3))
	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perMutator; i++ {
				u, v := edge.ID((i*mutators+w)%n), edge.ID((i*7+w)%n)
				if i%5 == 0 {
					s.ApplyBatch(1, []edge.Update{{Edge: edge.Edge{U: u, V: v, T: 1}, Op: edge.Insert}})
				} else {
					s.Insert(u, v, 1)
				}
			}
		}()
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()

	seenKeys := map[uint64]bool{}
	seenDirty := map[uint32]bool{}
	check := func() {
		dirty, keys, logged := s.FlushKeys(nil, nil)
		if !logged {
			t.Fatal("window overflowed; the test means to stay under the cap")
		}
		for _, u := range dirty {
			seenDirty[u] = true
		}
		for _, k := range keys {
			if _, ok := slices.BinarySearch(dirty, uint32(k>>32)); !ok {
				t.Fatalf("key %d->%d logged but vertex not in the same flush's dirty set", k>>32, uint32(k))
			}
			seenKeys[k] = true
		}
	}
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		check()
	}
	check()
	if s.DirtyCount() != 0 {
		t.Fatalf("dirty count after final flush = %d, want 0", s.DirtyCount())
	}
	for w := 0; w < mutators; w++ {
		for i := 0; i < perMutator; i++ {
			u, v := edge.ID((i*mutators+w)%n), edge.ID((i*7+w)%n)
			if !seenKeys[pack(u, v)] || !seenDirty[u] {
				t.Fatalf("mutation %d->%d lost: key seen %v, vertex seen %v", u, v, seenKeys[pack(u, v)], seenDirty[u])
			}
		}
	}
}

func TestTrackedReadKeys(t *testing.T) {
	s := NewTracked(NewHybrid(8, 64, 2, 1))
	s.Insert(1, 5, 10) // array mode
	if deg, keyed := s.ReadKeys(1, nil, nil, nil); deg != 1 || keyed {
		t.Fatalf("array vertex: deg %d keyed %v, want 1 false", deg, keyed)
	}
	s.Insert(1, 3, 11)
	s.Insert(1, 5, 12)
	s.Insert(1, 9, 13) // degree 4 > thresh 2: treap mode
	keys := []edge.ID{2, 3, 5, 9, 11}
	cnt, ts := make([]uint32, len(keys)), make([]uint32, len(keys))
	deg, keyed := s.ReadKeys(1, keys, cnt, ts)
	if deg != 4 || !keyed {
		t.Fatalf("treap vertex: deg %d keyed %v, want 4 true", deg, keyed)
	}
	if want := []uint32{0, 1, 2, 1, 0}; !slices.Equal(cnt, want) {
		t.Fatalf("cnt = %v, want %v", cnt, want)
	}
	if ts[1] != 11 || ts[2] != 12 || ts[3] != 13 {
		t.Fatalf("ts = %v, want _ 11 12 13 _", ts)
	}
	// A store without keyed order answers degree and false.
	d := NewTracked(NewDynArr(8, 64))
	d.Insert(1, 5, 10)
	if deg, keyed := d.ReadKeys(1, nil, nil, nil); deg != 1 || keyed {
		t.Fatalf("dyn-arr: deg %d keyed %v, want 1 false", deg, keyed)
	}
}
