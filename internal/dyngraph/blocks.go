package dyngraph

import (
	"slices"

	"snapdyn/internal/arena"
	"snapdyn/internal/edge"
)

// A heavy vertex of Hybrid keeps its adjacency as an ordered list of
// fixed-capacity arena blocks of packed 8-byte tuples, sorted by
// neighbor: the leaf shape of Aspen's C-trees and Terrace's skew-aware
// levels. A neighbor of multiplicity c is c consecutive identical
// tuples, all carrying the label of its last insert, so enumeration is
// keyed order (ascending neighbor, repeated by multiplicity, one label
// per neighbor) and ascending packed values at once. A run may straddle
// a block boundary. A full block spills into a neighbor block with room,
// or splits in halves, and a block that runs low merges with a neighbor.
// A per-vertex index of each block's first neighbor takes a lookup to
// its block in O(log(d/B)) for blocks of B tuples, a binary search
// finishes it in O(log B), and an insert or delete moves O(B) tuples.

// blockCap is the number of tuples a block holds: a power of two, so a
// block is one arena size class. A Hybrid reads it once, when it is
// made; tests shrink it to exercise splits, merges and runs longer than
// a block on small graphs.
var blockCap = 64

// hblock is one block of a heavy adjacency.
type hblock struct {
	first edge.ID  // neighbor of data[0]: the block's index key
	n     uint32   // tuples held, data[:n]
	data  []uint64 // the arena block; len(data) is the capacity
}

// blockList is one heavy vertex's adjacency: blocks in neighbor order,
// each non-empty, and the live degree (the sum of their tuple counts).
type blockList struct {
	deg    uint32
	blocks []hblock
}

// seek returns the block a tuple of neighbor v belongs in — the last
// block whose first neighbor is below v, or block 0 — and the offset in
// it of v's first tuple, or of where one would go.
func (l *blockList) seek(v edge.ID) (b, i int) {
	return l.seekFrom(0, 0, v)
}

// seekFrom is seek restricted to positions at or after (b, i), which
// must be at or before v's place.
func (l *blockList) seekFrom(b, i int, v edge.ID) (int, int) {
	bl := l.blocks
	lo, hi := b+1, len(bl) // find the first block past b whose first neighbor is >= v
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bl[m].first < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo-1 > b {
		b, i = lo-1, 0
	}
	d := bl[b].data[i:bl[b].n]
	j, _ := slices.BinarySearch(d, uint64(v)<<32) // pack(v, 0): below every tuple of v
	return b, i + j
}

// next normalizes a position past its block's end to the start of the
// following block.
func (l *blockList) next(b, i int) (int, int) {
	if b < len(l.blocks) && i == int(l.blocks[b].n) {
		return b + 1, 0
	}
	return b, i
}

// at reports whether position (b, i) holds a tuple of neighbor v.
func (l *blockList) at(b, i int, v edge.ID) bool {
	return b < len(l.blocks) && uint32(l.blocks[b].data[i]>>32) == v
}

// run reports v's multiplicity and label from its first tuple at (b, i),
// following the run across block boundaries.
func (l *blockList) run(b, i int, v edge.ID) (cnt, ts uint32) {
	for ; b < len(l.blocks); b, i = b+1, 0 {
		d := l.blocks[b].data[i:l.blocks[b].n]
		j := 0
		for j < len(d) && uint32(d[j]>>32) == v {
			j++
		}
		if j > 0 {
			cnt += uint32(j)
			ts = uint32(d[0])
		}
		if j < len(d) {
			break
		}
	}
	return cnt, ts
}

// has reports whether v is a neighbor.
func (l *blockList) has(v edge.ID) bool {
	b, i := l.next(l.seek(v))
	return l.at(b, i, v)
}

// insert adds one tuple of neighbor v labeled t, relabeling v's
// existing copies with t.
func (l *blockList) insert(ar *arena.Arena, v edge.ID, t uint32) {
	b, i := l.seek(v)
	e := pack(v, t)
	for rb, ri := l.next(b, i); l.at(rb, ri, v); rb, ri = l.next(rb, ri+1) {
		l.blocks[rb].data[ri] = e
	}
	if int(l.blocks[b].n) == len(l.blocks[b].data) {
		b, i = l.makeRoom(ar, b, i)
	}
	blk := &l.blocks[b]
	copy(blk.data[i+1:blk.n+1], blk.data[i:blk.n])
	blk.data[i] = e
	blk.n++
	if i == 0 {
		blk.first = v
	}
	l.deg++
}

// makeRoom frees a slot in full block b for a tuple bound for offset i
// and returns where that tuple now goes. When a neighbor block has two
// free slots or more, it moves tuples there until half of them are
// taken, as a B*-tree does, leaving both blocks room; it splits b in
// halves only when neither neighbor has, so blocks stay well filled
// under random inserts.
func (l *blockList) makeRoom(ar *arena.Arena, b, i int) (int, int) {
	blk := &l.blocks[b]
	bcap := len(blk.data)
	if b+1 < len(l.blocks) && int(l.blocks[b+1].n)+2 <= bcap {
		nx := &l.blocks[b+1]
		k := (bcap - int(nx.n)) / 2
		lo := int(blk.n) - k
		copy(nx.data[k:int(nx.n)+k], nx.data[:nx.n])
		copy(nx.data, blk.data[lo:blk.n])
		nx.n += uint32(k)
		nx.first = uint32(nx.data[0] >> 32)
		blk.n = uint32(lo)
		if i > lo {
			return b + 1, i - lo
		}
		return b, i
	}
	if b > 0 && int(l.blocks[b-1].n)+2 <= bcap {
		pv := &l.blocks[b-1]
		k := (bcap - int(pv.n)) / 2
		at := int(pv.n)
		copy(pv.data[pv.n:], blk.data[:k])
		pv.n += uint32(k)
		copy(blk.data, blk.data[k:blk.n])
		blk.n -= uint32(k)
		blk.first = uint32(blk.data[0] >> 32)
		if i <= k {
			return b - 1, at + i
		}
		return b, i - k
	}
	h := int(blk.n) / 2
	nb := hblock{n: blk.n - uint32(h), data: ar.Alloc(bcap)}
	copy(nb.data, blk.data[h:blk.n])
	nb.first = uint32(nb.data[0] >> 32)
	blk.n = uint32(h)
	l.blocks = slices.Insert(l.blocks, b+1, nb)
	if i > h {
		return b + 1, i - h
	}
	return b, i
}

// remove deletes one tuple of neighbor v, whatever its label, reporting
// whether there was one. A block left empty returns to the arena; one
// left at a quarter of its capacity or less merges with a neighbor
// block when the two fit in three quarters of one.
func (l *blockList) remove(ar *arena.Arena, v edge.ID) bool {
	b, i := l.next(l.seek(v))
	if !l.at(b, i, v) {
		return false
	}
	blk := &l.blocks[b]
	copy(blk.data[i:], blk.data[i+1:blk.n])
	blk.n--
	l.deg--
	if blk.n == 0 {
		ar.Free(blk.data)
		l.blocks = slices.Delete(l.blocks, b, b+1)
		return true
	}
	if i == 0 {
		blk.first = uint32(blk.data[0] >> 32)
	}
	if int(blk.n)*4 <= len(blk.data) {
		l.mergeAround(ar, b)
	}
	return true
}

// mergeAround folds low block b into its smaller neighbor block, or
// that neighbor into it, when the two fit in three quarters of a block.
func (l *blockList) mergeAround(ar *arena.Arena, b int) {
	c := -1
	if b > 0 {
		c = b - 1
	}
	if b+1 < len(l.blocks) && (c < 0 || l.blocks[b+1].n < l.blocks[c].n) {
		c = b + 1
	}
	if c < 0 || int(l.blocks[b].n+l.blocks[c].n)*4 > 3*len(l.blocks[b].data) {
		return
	}
	lo, hi := min(b, c), max(b, c)
	dst, src := &l.blocks[lo], &l.blocks[hi]
	copy(dst.data[dst.n:], src.data[:src.n])
	dst.n += src.n
	ar.Free(src.data)
	l.blocks = slices.Delete(l.blocks, hi, hi+1)
}

// newBlockList builds a list from d > 0 tuples whose neighbors ascend,
// nbr(j) for j < d, packing the blocks evenly so they share the slack
// of the last one. Each neighbor's run takes the label of its last
// tuple, label(j): the label one insert at a time in j order would
// leave it.
func newBlockList(ar *arena.Arena, bcap, d int, nbr func(j int) edge.ID, label func(j int) uint32) *blockList {
	nb := (d + bcap - 1) / bcap
	fill := (d + nb - 1) / nb
	l := &blockList{deg: uint32(d), blocks: make([]hblock, 0, nb)}
	for lo := 0; lo < d; {
		v := nbr(lo)
		hi := lo + 1
		for hi < d && nbr(hi) == v {
			hi++
		}
		e := pack(v, label(hi-1))
		for ; lo < hi; lo++ {
			if k := len(l.blocks); k == 0 || int(l.blocks[k-1].n) == fill {
				l.blocks = append(l.blocks, hblock{first: v, data: ar.Alloc(bcap)})
			}
			blk := &l.blocks[len(l.blocks)-1]
			blk.data[blk.n] = e
			blk.n++
		}
	}
	return l
}

// walk visits the tuples in keyed order until fn returns false.
func (l *blockList) walk(fn func(v edge.ID, t uint32) bool) {
	for _, blk := range l.blocks {
		for _, e := range blk.data[:blk.n] {
			if !fn(unpack(e)) {
				return
			}
		}
	}
}

// readKeys writes the multiplicity (0 = absent) and label of every
// neighbor of the ascending list keys to cnt and ts, in one forward
// walk; an absent neighbor's ts is left as it was.
func (l *blockList) readKeys(keys []edge.ID, cnt, ts []uint32) {
	b, i := 0, 0
	for k, v := range keys {
		b, i = l.seekFrom(b, i, v)
		rb, ri := l.next(b, i)
		c, t := l.run(rb, ri, v)
		cnt[k] = c
		if c > 0 {
			ts[k] = t
		}
	}
}

// free returns every block to the arena; the list is not used again.
func (l *blockList) free(ar *arena.Arena) {
	for _, blk := range l.blocks {
		ar.Free(blk.data)
	}
}
