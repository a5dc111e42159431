// Package arena implements the custom memory-management scheme the paper
// uses for adjacency storage: memory is held in large chunks, and worker
// threads carve blocks out of them in a thread-safe way, avoiding
// per-insert allocator (malloc) traffic. A caller that knows its load can
// reserve the chunks up front (the paper's "allocate a large chunk of
// memory at algorithm initiation"); allocation bump-allocates through the
// reserved chunks before it adds another.
//
// Blocks hold fixed-width uint64 entries (an adjacency entry packs a
// 32-bit neighbor id and a 32-bit time-stamp). Blocks are addressed by
// (chunk, offset) handles so that adjacency metadata stays compact; the
// arena also recycles freed blocks through per-size-class free lists, the
// analogue of the paper's reuse of doubled-away arrays.
package arena

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// chunkEntries is the number of uint64 entries per reserved backing
	// chunk, and the most an on-demand chunk holds: 1<<20 entries = 8 MiB.
	chunkEntries = 1 << 20

	// minChunkEntries is the smallest on-demand chunk: 1<<16 entries =
	// 512 KiB. On-demand chunks double the arena's capacity up to
	// chunkEntries, so a small load does not sit in an 8 MiB chunk.
	minChunkEntries = 1 << 16

	// maxClass is the largest supported size class exponent: blocks of up
	// to 2^maxClass entries. Larger requests get dedicated chunks.
	maxClass = 20
)

// Arena is a thread-safe bump allocator with size-class free lists.
// The zero value is not usable; call New.
type Arena struct {
	mu     sync.Mutex
	chunks [][]uint64
	spare  [][]uint64 // reserved chunks not yet bump-allocated from
	cur    []uint64   // active chunk
	off    int        // next free entry in cur

	free [maxClass + 1][][]uint64 // recycled blocks per size class

	allocated atomic.Int64 // total entries handed out (statistics)
	recycled  atomic.Int64 // total entries returned
}

// New returns an empty arena. Memory is reserved chunk by chunk on demand;
// reserveEntries (if > 0) pre-allocates capacity for that many entries up
// front, in whole chunkEntries chunks, matching the paper's "allocate a
// large chunk of memory at algorithm initiation".
func New(reserveEntries int) *Arena {
	a := &Arena{}
	if reserveEntries > 0 {
		n := (reserveEntries + chunkEntries - 1) / chunkEntries
		for i := 0; i < n; i++ {
			a.chunks = append(a.chunks, make([]uint64, chunkEntries))
		}
		a.cur, a.spare = a.chunks[0], a.chunks[1:]
	}
	return a
}

// classFor returns the size class (ceil log2) for n entries.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// ClassSize returns the rounded block size for a request of n entries.
func ClassSize(n int) int {
	return 1 << classFor(n)
}

// Alloc returns a zeroed block with capacity at least n entries. The
// returned slice has len == cap == ClassSize(n). Alloc is safe for
// concurrent use.
func (a *Arena) Alloc(n int) []uint64 {
	if n <= 0 {
		n = 1
	}
	c := classFor(n)
	size := 1 << c
	a.allocated.Add(int64(size))

	a.mu.Lock()
	if c <= maxClass {
		if fl := a.free[c]; len(fl) > 0 {
			b := fl[len(fl)-1]
			a.free[c] = fl[:len(fl)-1]
			a.mu.Unlock()
			clear(b)
			return b
		}
	}
	if size > chunkEntries {
		// Oversized: dedicated chunk, not bump-allocated.
		b := make([]uint64, size)
		a.chunks = append(a.chunks, b)
		a.mu.Unlock()
		return b
	}
	if a.cur == nil || a.off+size > len(a.cur) {
		if len(a.spare) > 0 {
			a.cur, a.spare = a.spare[0], a.spare[1:]
		} else {
			held := 0
			for _, c := range a.chunks {
				held += len(c)
			}
			a.cur = make([]uint64, max(size, min(chunkEntries, max(minChunkEntries, held))))
			a.chunks = append(a.chunks, a.cur)
		}
		a.off = 0
	}
	b := a.cur[a.off : a.off+size : a.off+size]
	a.off += size
	a.mu.Unlock()
	return b
}

// Free returns a block obtained from Alloc to the arena for reuse. The
// block must not be used after Free. Blocks whose length is not a power of
// two or exceeds the largest size class are dropped (left to the GC).
func (a *Arena) Free(b []uint64) {
	n := len(b)
	if n == 0 || n&(n-1) != 0 {
		return
	}
	c := classFor(n)
	if c > maxClass {
		return
	}
	a.recycled.Add(int64(n))
	a.mu.Lock()
	a.free[c] = append(a.free[c], b)
	a.mu.Unlock()
}

// Stats reports cumulative allocation statistics.
type Stats struct {
	Chunks           int   // backing chunks held
	EntriesAllocated int64 // entries handed out (cumulative)
	EntriesRecycled  int64 // entries returned via Free (cumulative)
	EntriesReserved  int64 // total backing capacity in entries
}

// Stats returns a snapshot of allocation statistics.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var reserved int64
	for _, c := range a.chunks {
		reserved += int64(len(c))
	}
	return Stats{
		Chunks:           len(a.chunks),
		EntriesAllocated: a.allocated.Load(),
		EntriesRecycled:  a.recycled.Load(),
		EntriesReserved:  reserved,
	}
}

// String implements fmt.Stringer for diagnostics.
func (s Stats) String() string {
	return fmt.Sprintf("arena{chunks=%d reserved=%d alloc=%d recycled=%d}",
		s.Chunks, s.EntriesReserved, s.EntriesAllocated, s.EntriesRecycled)
}
