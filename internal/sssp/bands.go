package sssp

import (
	"math/bits"

	"snapdyn/internal/frontier"
	"snapdyn/internal/par"
)

// maxRing caps the cyclic bucket ring size. Bands beyond the ring's
// window spill into an overflow list that is redistributed when the
// window catches up — only reachable when delta is tiny relative to the
// largest weight.
const maxRing = 1 << 12

// Relaxer runs one relaxation phase of a delta-stepping band loop: it
// relaxes the light (or heavy) arcs of every batch vertex, CAS-minimizing
// into the distance array Bands.Reset returned, and leaves each target
// whose distance it lowered in one of out's buckets: any of the first
// workers, as given to Reset. A target may be left more than once.
type Relaxer interface {
	Phase(batch []uint32, light bool, out *frontier.Buckets)
}

// Bands is the delta-stepping band loop and its reusable state: the
// distance array, the cyclic bucket ring with its overflow list, the
// batch-dedup and settled bitmaps, and the per-worker buckets the
// relaxer's phases leave their winners in. The loop settles distance
// bands of width delta in order — a fixpoint of light phases per band,
// then one heavy phase over the band's settled vertices — and moves each
// phase's winners into the ring. How a phase relaxes arcs is the
// Relaxer's business: the single-snapshot kernel partitions the batch's
// arcs across workers, the shard fleet scatters it by vertex owner.
// After warm-up a run allocates nothing of its own.
type Bands struct {
	dist  []int64
	delta int64

	inBatch   *frontier.Bitmap // dedups one batch; cleared per batch member
	inSettled *frontier.Bitmap // dedups a band's settled set; cleared per band
	out       *frontier.Buckets

	ring     [][]uint32 // cyclic bucket array, power-of-two length
	overflow []uint32
	settled  []uint32
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
		b.inSettled = frontier.NewBitmap(n)
	} else if b.inBatch.Len() != n {
		b.inBatch.Grow(n)
		b.inSettled.Grow(n)
	}
	if b.out == nil {
		b.out = frontier.NewBuckets(workers)
	} else {
		b.out.Grow(workers)
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

// levelRing gives every slot of the (empty) ring the capacity of its
// largest one, rounded up to a power of two. Which bands are crowded
// depends on the source, so left alone each new source regrows a
// different handful of slots and the steady state keeps allocating long
// after the first run; levelled, a run allocates only when a band
// outgrows every band seen before. A ring whose levelled size would
// pass ringBudget entries per vertex — an explicit delta far below the
// weights makes thousands of sparse bands — keeps growing slot by slot.
func levelRing(ring [][]uint32, n int) {
	maxCap := 0
	for _, s := range ring {
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
// relaxation from the current band can reach: light targets stay within
// one band, heavy targets within maxW/delta + 1, so maxW/delta + 2
// consecutive bands always suffice (capped at maxRing; the overflow
// list absorbs the pathological remainder).
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

		// Light fixpoint: relax the band's light arcs until no vertex
		// re-enters it. A vertex improved within its own band re-enters
		// the slot and is re-relaxed with the smaller distance.
		settled := b.settled[:0]
		for len(*slot) > 0 {
			raw := *slot
			batch := b.batch[:0]
			for _, v := range raw {
				d := dist[v]
				if d == Inf || d/delta != cur {
					continue // stale: improved into another band
				}
				if b.inBatch.Set(v) {
					batch = append(batch, v)
				}
			}
			queued -= len(raw)
			*slot = raw[:0]
			for _, v := range batch {
				b.inBatch.Clear(v)
				if b.inSettled.Set(v) {
					settled = append(settled, v)
				}
			}
			b.batch = batch
			if len(batch) == 0 {
				continue
			}
			r.Phase(batch, true, b.out)
			queued += b.drain(cur, mask)
		}

		// Heavy pass: once per vertex settled in this band, with its
		// final distance. Heavy targets always land in strictly later
		// bands, so the fixpoint cannot reopen.
		if len(settled) > 0 {
			r.Phase(settled, false, b.out)
			queued += b.drain(cur, mask)
			for _, v := range settled {
				b.inSettled.Clear(v)
			}
		}
		b.settled = settled
		cur++
	}
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
