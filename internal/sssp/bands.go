package sssp

import (
	"math/bits"
	"unsafe"

	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
)

// maxRing caps the cyclic bucket ring size. Bands beyond the ring's
// window spill into an overflow list that is redistributed when the
// window catches up — reachable when delta is tiny relative to the
// largest weight, or when an arc outweighs every weight the delta
// heuristic sampled.
const maxRing = 1 << 12

// Relaxer runs one relaxation phase of a delta-stepping band loop: it
// relaxes every arc of every batch vertex, minimizing into the distance
// array Bands.Reset returned, and leaves each target whose distance it
// lowered in one of out's buckets: any of the first workers, as given
// to Reset. A target may be left more than once. The batch holds
// distinct vertices; a dense one comes in ascending id order.
type Relaxer interface {
	Phase(batch []uint32, out *frontier.Buckets)
}

// Bands is the delta-stepping band loop and its reusable state: the
// distance array, the cyclic bucket ring with its overflow list, the
// batch-dedup bitmap, and the per-worker buckets the relaxer's phases
// leave their winners in. The loop settles distance bands of width
// delta in order — each band a fixpoint of phases over the band's
// vertices, all of whose arcs are relaxed — and moves each phase's
// winners into the ring. A batch with at least one member per eight
// bitmap words its ids span is handed over in ascending id order, read
// off the dedup words, so its arcs are walked front to back; a thinner
// one keeps the order its members were queued in. How a phase relaxes
// arcs is the Relaxer's business: the single-snapshot kernel runs
// RelaxOwned serially or partitions the batch's arcs across CAS
// workers, and the shard fleet relaxes each member from its owner
// shard's snapshot through RelaxOwned. After
// warm-up a run allocates nothing of its own, and every buffer is
// O(n): no state is kept per arc.
type Bands struct {
	dist  []int64
	delta int64

	inBatch *frontier.Bitmap // dedups one batch; cleared per batch member
	out     *frontier.Buckets

	ring     [][]uint32 // cyclic bucket array, power-of-two length
	overflow []uint32
	batch    []uint32
}

// Reset sizes every buffer for a run over n vertices with bucket width
// delta and largest weight maxW, gives the relaxer workers output
// buckets, and returns the distance array with every entry Inf. Its
// fill runs on workers goroutines.
func (b *Bands) Reset(workers, n int, maxW uint32, delta int64) []int64 {
	if cap(b.dist) < n {
		b.dist = make([]int64, n)
	} else {
		b.dist = b.dist[:n]
	}
	b.delta = delta
	if b.inBatch == nil {
		b.inBatch = frontier.NewBitmap(n)
	} else if b.inBatch.Len() != n {
		b.inBatch.Grow(n)
	}
	if b.out == nil {
		b.out = frontier.NewBuckets(workers)
	} else {
		b.out.Grow(workers)
	}
	for w := 0; w < b.out.Width(); w++ {
		b.out.Put(w, b.out.Take(w)) // a run a weight panic cut short leaves winners
	}
	if s := ringSize(maxW, delta); len(b.ring) < s {
		ring := make([][]uint32, s)
		copy(ring, b.ring)
		b.ring = ring
	}
	levelRing(b.ring, n)
	dist := b.dist
	if workers == 1 {
		for i := range dist {
			dist[i] = Inf
		}
	} else {
		par.ForBlock(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dist[i] = Inf
			}
		})
	}
	return dist
}

// ringBudget bounds, in entries per vertex, the ring size levelRing may
// allocate up to.
const ringBudget = 16

// levelRing empties every slot of the ring (a run a weight panic cut
// short leaves entries behind) and gives each the capacity of its
// largest one, rounded up to a power of two. Which bands are crowded
// depends on the source, so left alone each new source regrows a
// different handful of slots and the steady state keeps allocating long
// after the first run; levelled, a run allocates only when a band
// outgrows every band seen before. A ring whose levelled size would
// pass ringBudget entries per vertex — an explicit delta far below the
// weights makes thousands of sparse bands — keeps growing slot by slot.
func levelRing(ring [][]uint32, n int) {
	maxCap := 0
	for i, s := range ring {
		ring[i] = s[:0]
		maxCap = max(maxCap, cap(s))
	}
	if maxCap == 0 {
		return
	}
	level := 1 << bits.Len(uint(maxCap-1))
	if level*len(ring) > ringBudget*n {
		return
	}
	for i, s := range ring {
		if cap(s) < level {
			ring[i] = make([]uint32, 0, level)
		}
	}
}

// ringSize returns the power-of-two ring length covering every band a
// relaxation from the current band can reach when no arc outweighs
// maxW: a target lands at most maxW/delta + 1 bands ahead, so
// maxW/delta + 2 consecutive bands suffice (capped at maxRing). The
// overflow list absorbs the rest: heavier arcs than the sampled maxW,
// and the pathological remainder past the cap.
func ringSize(maxW uint32, delta int64) int {
	span := int64(maxW)/delta + 2
	s := 4
	for int64(s) < span && s < maxRing {
		s <<= 1
	}
	return s
}

// Run settles every vertex reachable from src, band by band, relaxing
// through r, and leaves the exact distances in the array Reset returned.
func (b *Bands) Run(src uint32, r Relaxer) {
	dist, delta := b.dist, b.delta
	words := b.inBatch.Words()
	dist[src] = 0
	mask := len(b.ring) - 1
	b.overflow = b.overflow[:0]
	b.ring[0] = append(b.ring[0][:0], src)
	queued := 1

	for cur := int64(0); queued > 0 || len(b.overflow) > 0; {
		if queued == 0 {
			// The ring is drained but overflow entries remain: jump the
			// window forward to their earliest band and re-add them.
			cur, queued = b.redistribute(cur, mask)
			continue
		}
		if len(b.overflow) > 0 {
			// Merge overflow entries whose band has entered the window
			// before scanning: the scan below may advance cur up to
			// span-1 bands, and a band that lives only in the overflow
			// list must be re-ringed before cur can pass it. Ring
			// entries never need this — an entry is always placed with
			// a base the scan has not passed, so its slot is reached at
			// its true band.
			queued += b.sweepOverflow(cur, mask)
		}
		for len(b.ring[int(cur)&mask]) == 0 {
			cur++
		}
		slot := &b.ring[int(cur)&mask]

		// Fixpoint: relax the band's vertices until none re-enters it.
		// A vertex improved within its own band re-enters the slot and
		// is relaxed again with the smaller distance; targets in later
		// bands wait in theirs.
		for len(*slot) > 0 {
			raw := *slot
			batch := b.batch[:0]
			loW, hiW := len(words), -1
			for _, v := range raw {
				d := dist[v]
				if d == Inf || d/delta != cur {
					continue // stale: improved into another band
				}
				if b.inBatch.Set(v) {
					batch = append(batch, v)
					loW, hiW = min(loW, int(v>>6)), max(hiW, int(v>>6))
				}
			}
			queued -= len(raw)
			*slot = raw[:0]
			b.batch = batch
			if len(batch) == 0 {
				continue
			}
			// A dense batch is re-read off its dedup words in id order,
			// so the phase walks the arc arrays forward; a sparse one
			// keeps its member order rather than scan mostly empty words.
			if 8*len(batch) >= hiW-loW+1 {
				batch = collect(words[loW:hiW+1], uint32(loW)<<6, batch[:0])
			} else {
				for _, v := range batch {
					b.inBatch.Clear(v)
				}
			}
			r.Phase(batch, b.out)
			queued += b.drain(cur, mask)
		}
		cur++
	}
	// Level now rather than at the next Reset, so the allocations of a
	// run whose bands outgrew the ring's fall in that run.
	levelRing(b.ring, len(dist))
}

// collect appends the ids whose bits are set in words, the first of
// which holds ids from base, to dst in ascending order, clearing each
// word it reads.
func collect(words []uint64, base uint32, dst []uint32) []uint32 {
	for i, w := range words {
		if w == 0 {
			continue
		}
		words[i] = 0
		for id := base + uint32(i)<<6; w != 0; w &= w - 1 {
			dst = append(dst, id+uint32(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// drain moves the phase's winners out of the buckets into the ring (or
// the overflow list for bands beyond the window base cur), returning the
// number of ring entries added.
func (b *Bands) drain(cur int64, mask int) int {
	dist, delta := b.dist, b.delta
	span := int64(mask + 1)
	added := 0
	for w := 0; w < b.out.Width(); w++ {
		buf := b.out.Buf(w)
		for _, v := range buf {
			band := dist[v] / delta
			if band-cur < span {
				b.ring[int(band)&mask] = append(b.ring[int(band)&mask], v)
				added++
			} else {
				b.overflow = append(b.overflow, v)
			}
		}
		b.out.Put(w, buf[:0])
	}
	return added
}

// redistribute advances the window to the earliest live overflow band
// and moves every overflow entry now inside the window into the ring.
func (b *Bands) redistribute(cur int64, mask int) (int64, int) {
	minBand, live := int64(-1), b.overflow[:0]
	for _, v := range b.overflow {
		band := b.dist[v] / b.delta
		if band < cur {
			continue // settled in an earlier band: stale duplicate
		}
		if minBand < 0 || band < minBand {
			minBand = band
		}
		live = append(live, v)
	}
	b.overflow = live
	if minBand < 0 {
		return cur, 0
	}
	return minBand, b.sweepOverflow(minBand, mask)
}

// sweepOverflow moves every overflow entry whose band lies in the
// window [cur, cur+span) into the ring, drops entries whose distance
// improved into an already-settled band (stale duplicates), keeps the
// rest, and returns the number of ring entries added.
func (b *Bands) sweepOverflow(cur int64, mask int) int {
	span := int64(mask + 1)
	added, keep := 0, b.overflow[:0]
	for _, v := range b.overflow {
		band := b.dist[v] / b.delta
		if band < cur {
			continue
		}
		if band-cur < span {
			b.ring[int(band)&mask] = append(b.ring[int(band)&mask], v)
			added++
		} else {
			keep = append(keep, v)
		}
	}
	b.overflow = keep
	return added
}

// SizeBytes returns the bytes the loop's buffers hold: the distance
// array, the dedup bitmap, the ring and overflow list, the batch, and
// the relaxer's output buckets. Every one is O(n).
func (b *Bands) SizeBytes() int64 {
	s := 8*int64(cap(b.dist)) + 4*int64(cap(b.overflow)+cap(b.batch)) +
		int64(cap(b.ring))*int64(unsafe.Sizeof([]uint32(nil)))
	if b.inBatch != nil {
		s += 8 * int64(cap(b.inBatch.Words()))
	}
	for _, slot := range b.ring {
		s += 4 * int64(cap(slot))
	}
	if b.out != nil {
		for w := 0; w < b.out.Width(); w++ {
			s += 4 * int64(cap(b.out.Buf(w)))
		}
	}
	return s
}
