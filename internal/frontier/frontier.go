package frontier

import "snapdyn/internal/par"

// Frontier is a hybrid BFS frontier over vertex ids [0, n): a sparse
// vertex queue for the push (top-down) direction and a dense bitmap for
// the pull (bottom-up) direction, converting between the two on demand.
// All backing storage is retained across Reset/Grow so a frontier can be
// reused by many traversals without allocating.
type Frontier struct {
	verts []uint32
	bits  *Bitmap // lazily allocated: pure-sparse users never pay for it
	n     int
	dense bool
	count int
}

// New returns an empty sparse frontier over n vertex ids.
func New(n int) *Frontier {
	f := &Frontier{}
	f.Grow(n)
	return f
}

// Grow resizes the frontier to cover n ids, reusing buffers when large
// enough, and empties it.
func (f *Frontier) Grow(n int) {
	if cap(f.verts) < n {
		f.verts = make([]uint32, 0, n)
	}
	if f.bits != nil && f.bits.Len() != n {
		f.bits.Grow(n)
	}
	f.n = n
	f.Reset()
}

// lazyBits returns the bitmap, allocating it on first dense use.
func (f *Frontier) lazyBits() *Bitmap {
	if f.bits == nil {
		f.bits = NewBitmap(f.n)
	}
	return f.bits
}

// Reset empties the frontier and returns it to sparse mode. The bitmap
// is cleared only when it was in use, keeping Reset O(count) for sparse
// frontiers.
func (f *Frontier) Reset() {
	f.verts = f.verts[:0]
	if f.dense {
		f.bits.Reset()
		f.dense = false
	}
	f.count = 0
}

// Count returns the number of frontier vertices.
func (f *Frontier) Count() int { return f.count }

// IsDense reports whether the bitmap is the current representation.
func (f *Frontier) IsDense() bool { return f.dense }

// Append adds v to a sparse frontier. The caller guarantees v is not
// already present (BFS set-once discovery provides this).
func (f *Frontier) Append(v uint32) {
	f.verts = append(f.verts, v)
	f.count++
}

// AppendAll adds a batch of distinct vertices to a sparse frontier.
func (f *Frontier) AppendAll(vs []uint32) {
	f.verts = append(f.verts, vs...)
	f.count += len(vs)
}

// Vertices returns the frontier as a sparse vertex slice (a view into
// internal storage: valid until the next mutation), converting from the
// bitmap if needed. Conversion yields ascending id order.
func (f *Frontier) Vertices() []uint32 {
	if f.dense {
		f.verts = f.bits.AppendTo(f.verts[:0])
		f.bits.Reset()
		f.dense = false
	}
	return f.verts
}

// Bits returns the frontier as a bitmap (a view into internal storage),
// converting from the sparse queue in parallel if needed. The serial
// path avoids the conversion closure so single-worker steady-state
// traversals stay allocation-free.
func (f *Frontier) Bits(workers int) *Bitmap {
	if !f.dense {
		bits := f.lazyBits()
		verts := f.verts
		if workers == 1 || len(verts) < 1024 {
			for _, v := range verts {
				bits.Set(v)
			}
		} else {
			par.ForBlock(workers, len(verts), func(lo, hi int) {
				for _, v := range verts[lo:hi] {
					bits.TrySet(v)
				}
			})
		}
		f.verts = f.verts[:0]
		f.dense = true
	}
	return f.bits
}

// DenseWriter switches an empty frontier to dense mode and returns the
// bitmap for concurrent TrySet publication. The producer must report the
// number of bits it set via SetCount (cheaper than a popcount pass when
// the producer already counts discoveries).
func (f *Frontier) DenseWriter() *Bitmap {
	f.dense = true
	return f.lazyBits()
}

// SetCount records the frontier size after direct bitmap publication.
func (f *Frontier) SetCount(c int) { f.count = c }

// SizeBytes returns the bytes the frontier retains: its vertex queue
// and, once used, its bitmap.
func (f *Frontier) SizeBytes() int64 {
	b := 4 * int64(cap(f.verts))
	if f.bits != nil {
		b += 8 * int64(cap(f.bits.words))
	}
	return b
}

// Buckets is a pool of per-worker append buffers for frontier
// production: each worker takes its bucket, appends discoveries, puts it
// back, and Drain concatenates the buckets into a frontier. Buffer
// capacity is retained across levels and traversals.
type Buckets struct {
	bufs [][]uint32
}

// NewBuckets returns a pool of the given width.
func NewBuckets(workers int) *Buckets {
	b := &Buckets{}
	b.Grow(workers)
	return b
}

// Grow widens the pool to at least the given number of workers, keeping
// existing buffers.
func (b *Buckets) Grow(workers int) {
	for len(b.bufs) < workers {
		b.bufs = append(b.bufs, nil)
	}
}

// Width returns the number of buffers in the pool.
func (b *Buckets) Width() int { return len(b.bufs) }

// Take returns worker w's buffer, emptied.
func (b *Buckets) Take(w int) []uint32 { return b.bufs[w][:0] }

// Buf returns worker w's current contents without emptying it (a view;
// valid until the next Take or Put for w). Consumers that scatter bucket
// contents somewhere other than a Frontier iterate Buf over the width
// and Put the emptied buffer back.
func (b *Buckets) Buf(w int) []uint32 { return b.bufs[w] }

// Put stores worker w's buffer back (call after appends: append may have
// reallocated the backing array).
func (b *Buckets) Put(w int, buf []uint32) { b.bufs[w] = buf }

// Drain appends every bucket's contents to the sparse frontier and
// returns the number of vertices transferred. Buckets keep their
// capacity but are emptied.
func (b *Buckets) Drain(f *Frontier) int {
	total := 0
	for w, buf := range b.bufs {
		f.AppendAll(buf)
		total += len(buf)
		b.bufs[w] = buf[:0]
	}
	return total
}

// SizeBytes returns the bytes the buffers retain.
func (b *Buckets) SizeBytes() int64 {
	var n int64
	for _, buf := range b.bufs {
		n += 4 * int64(cap(buf))
	}
	return n
}
