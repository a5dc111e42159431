package arena

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClassSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{16, 16}, {17, 32}, {1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := ClassSize(c.n); got != c.want {
			t.Errorf("ClassSize(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAllocReturnsZeroed(t *testing.T) {
	a := New(0)
	b := a.Alloc(8)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("fresh block entry %d = %d, want 0", i, v)
		}
	}
	for i := range b {
		b[i] = uint64(i) + 1
	}
	a.Free(b)
	b2 := a.Alloc(8)
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("recycled block entry %d = %d, want 0", i, v)
		}
	}
}

func TestAllocCapacity(t *testing.T) {
	a := New(0)
	if err := quick.Check(func(n uint16) bool {
		want := ClassSize(int(n))
		b := a.Alloc(int(n))
		return len(b) == want && cap(b) == want
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksDoNotOverlap(t *testing.T) {
	a := New(0)
	blocks := make([][]uint64, 0, 100)
	for i := 0; i < 100; i++ {
		b := a.Alloc(16)
		for j := range b {
			b[j] = uint64(i)
		}
		blocks = append(blocks, b)
	}
	for i, b := range blocks {
		for j, v := range b {
			if v != uint64(i) {
				t.Fatalf("block %d entry %d clobbered: %d", i, j, v)
			}
		}
	}
}

func TestRecycle(t *testing.T) {
	a := New(0)
	b := a.Alloc(64)
	a.Free(b)
	b2 := a.Alloc(64)
	if &b[0] != &b2[0] {
		t.Fatal("expected recycled block to be reused")
	}
}

func TestOversizedAlloc(t *testing.T) {
	a := New(0)
	b := a.Alloc(chunkEntries * 2)
	if len(b) < chunkEntries*2 {
		t.Fatalf("oversized alloc returned %d entries", len(b))
	}
}

func TestReserve(t *testing.T) {
	a := New(3 * chunkEntries)
	s := a.Stats()
	if s.EntriesReserved < 3*chunkEntries {
		t.Fatalf("reserved %d entries, want >= %d", s.EntriesReserved, 3*chunkEntries)
	}
	if s.Chunks != 3 {
		t.Fatalf("chunks = %d, want 3", s.Chunks)
	}
}

// TestReserveIsUsed pins that allocations within the reservation are
// carved from the reserved chunks: none is added until they are full.
func TestReserveIsUsed(t *testing.T) {
	a := New(3 * chunkEntries)
	const block = 1 << 16
	for i := 0; i < 3*chunkEntries/block; i++ {
		a.Alloc(block)
	}
	if got := a.Stats().Chunks; got != 3 {
		t.Fatalf("chunks after filling the reservation = %d, want 3", got)
	}
	a.Alloc(1)
	if s := a.Stats(); s.Chunks != 4 || s.EntriesReserved != 4*chunkEntries {
		t.Fatalf("after one more alloc: %v, want a 4th full chunk", s)
	}
}

// TestChunksGrowWithLoad pins on-demand chunk sizing: an unreserved
// arena starts at minChunkEntries and each new chunk doubles its
// capacity, up to chunkEntries; a block larger than that chunk gets a
// chunk of its own size.
func TestChunksGrowWithLoad(t *testing.T) {
	a := New(0)
	var held []int64
	for range 8 {
		a.Alloc(minChunkEntries)
		held = append(held, a.Stats().EntriesReserved)
	}
	want := []int64{1, 2, 4, 4, 8, 8, 8, 8}
	for i, h := range held {
		if h != want[i]*minChunkEntries {
			t.Fatalf("capacity after %d chunk-sized allocs = %d entries, want %d", i+1, h, want[i]*minChunkEntries)
		}
	}
	b := New(0)
	b.Alloc(1)
	b.Alloc(2 * minChunkEntries)
	if s := b.Stats(); s.Chunks != 2 || s.EntriesReserved != 3*minChunkEntries {
		t.Fatalf("after a block past the chunk: %v, want chunks of %d and %d entries", s, minChunkEntries, 2*minChunkEntries)
	}
}

func TestFreeIgnoresBadBlocks(t *testing.T) {
	a := New(0)
	a.Free(nil)               // empty
	a.Free(make([]uint64, 3)) // not a power of two
	b := a.Alloc(4)
	a.Free(b)
	if got := a.Alloc(4); &got[0] != &b[0] {
		t.Fatal("valid free was not recycled")
	}
}

func TestConcurrentAlloc(t *testing.T) {
	a := New(0)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	results := make([][][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				b := a.Alloc(8)
				for j := range b {
					b[j] = uint64(w)<<32 | uint64(i)
				}
				results[w] = append(results[w], b)
			}
		}(w)
	}
	wg.Wait()
	for w, bs := range results {
		for i, b := range bs {
			for _, v := range b {
				if v != uint64(w)<<32|uint64(i) {
					t.Fatalf("worker %d block %d corrupted", w, i)
				}
			}
		}
	}
}

func TestStatsCounts(t *testing.T) {
	a := New(0)
	a.Alloc(16)
	b := a.Alloc(32)
	a.Free(b)
	s := a.Stats()
	if s.EntriesAllocated != 48 {
		t.Fatalf("allocated = %d, want 48", s.EntriesAllocated)
	}
	if s.EntriesRecycled != 32 {
		t.Fatalf("recycled = %d, want 32", s.EntriesRecycled)
	}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}

func BenchmarkAlloc(b *testing.B) {
	a := New(1 << 22)
	for i := 0; i < b.N; i++ {
		blk := a.Alloc(16)
		a.Free(blk)
	}
}
