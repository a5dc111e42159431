package compress

import (
	"encoding/binary"

	"snapdyn/internal/csr"
)

// Arcs says where a graph's arcs live, for the kernels that read vertex
// u's arcs as []uint32 spans. Exactly one of Views and C is set.
type Arcs struct {
	// Views is a view set whose union is the graph: every view spans
	// the same vertex ids, and u's arcs are its CSR span in
	// Views[u % len(Views)] (a shard fleet's per-shard snapshots; one
	// CSR is the one-view set).
	Views []*csr.Graph
	// C is a compressed graph: u's arcs are its block, decoded a run at
	// a time (see Run).
	C *Graph
}

// N returns the vertex count.
func (a Arcs) N() int {
	if a.C != nil {
		return a.C.N
	}
	return a.Views[0].N
}

// NumEdges returns the arc count.
func (a Arcs) NumEdges() int64 {
	if a.C != nil {
		return a.C.NumEdges()
	}
	var m int64
	for _, g := range a.Views {
		m += g.NumEdges()
	}
	return m
}

// MaxDegree returns the largest out-degree. A view's vertices that it
// does not hold have empty spans there, so the views' maxima cover the
// union.
func (a Arcs) MaxDegree() int64 {
	if a.C != nil {
		return a.C.MaxDegree()
	}
	var d int64
	for _, g := range a.Views {
		d = max(d, g.MaxDegree())
	}
	return d
}

// View returns the view that holds u's arcs, without the division on a
// one-view set. Only for a view set.
func (a Arcs) View(u uint32) *csr.Graph {
	if len(a.Views) == 1 {
		return a.Views[0]
	}
	return a.Views[u%uint32(len(a.Views))]
}

// Degree returns u's out-degree.
func (a Arcs) Degree(u uint32) int64 {
	if a.C != nil {
		return a.C.Degree(u)
	}
	return a.View(u).Degree(u)
}

// DegreeSum returns the total out-degree of vs.
func (a Arcs) DegreeSum(workers int, vs []uint32) int64 {
	if a.C != nil {
		return a.C.DegreeSum(workers, vs)
	}
	if len(a.Views) == 1 {
		return a.Views[0].DegreeSum(workers, vs)
	}
	var sum int64
	for _, v := range vs {
		sum += a.View(v).Degree(v)
	}
	return sum
}

// RunLen is the most arcs Run.Next decodes at a time; a run's heads and
// labels fill two 256-byte arrays on the kernel's stack. The first run
// after Span or SpanRange holds at most firstRun arcs, so a kernel that
// stops at its first hit — the pull step's parent search, which mostly
// hits within its first arcs — decodes little more than it reads: at
// R-MAT scale 16, compressed BFS takes 1.4x as long with a first run of
// 8 arcs as with one of 2.
const (
	RunLen   = 64
	firstRun = 2
)

// Run decodes one vertex's block front to back, a run of arcs at a
// time, into its own arrays: the bulk decoder every kernel reads a
// compressed vertex through. It is meant to live on the kernel's stack;
// the slices Next returns alias it and hold until the next call.
type Run struct {
	b     []byte
	deg   int64 // the vertex's degree
	left  int64 // arcs still to decode
	max   int64 // the next run's length cap: firstRun, then RunLen
	prev  int64 // the last decoded neighbor id (the vertex id before the first)
	first bool  // the next gap is the zig-zag first one
	adj   [RunLen]uint32
	ts    [RunLen]uint32
}

// Span positions r at the start of u's block and returns the first run
// of u's arcs (see Next); the rest follow from r.Next. A kernel reads
// every arc of u with
//
//	adj, ts := c.Span(&r, u, labels)
//	for {
//		... adj, ts ...
//		if r.Left() == 0 {
//			break
//		}
//		adj, ts = r.Next(labels)
//	}
//
// where on a view set (Arcs.Views) adj, ts is u's CSR span and the
// loop runs once.
func (g *Graph) Span(r *Run, u uint32, labels bool) (adj, ts []uint32) {
	g.open(r, u)
	return r.Next(labels)
}

// SpanRange is Span over u's arcs lo up to hi only. Reaching arc lo
// decodes the gaps before it.
func (g *Graph) SpanRange(r *Run, u uint32, lo, hi int64, labels bool) (adj, ts []uint32) {
	g.open(r, u)
	if lo > 0 {
		r.skip(lo)
	}
	r.left = hi - lo
	return r.Next(labels)
}

// open positions r at the start of u's block.
func (g *Graph) open(r *Run, u uint32) {
	b := g.data[g.offsets[u]:g.offsets[u+1]]
	d, k := uint64(b[0]), 1
	if d >= 0x80 {
		d, k = binary.Uvarint(b)
	}
	r.b, r.deg, r.left, r.max, r.prev, r.first = b[k:], int64(d), int64(d), firstRun, int64(u), true
}

// Degree returns the degree of the vertex r was opened on.
func (r *Run) Degree() int64 { return r.deg }

// Left returns how many arcs are left to decode.
func (r *Run) Left() int64 { return r.left }

// Next decodes the next run — up to firstRun arcs right after Span or
// SpanRange, up to RunLen after that, and never more than Left() — and
// returns their heads, in increasing order, and their labels. With
// labels unset the labels are skipped, not decoded, and ts's contents
// are unspecified. Both are empty once the block is exhausted.
func (r *Run) Next(labels bool) (adj, ts []uint32) {
	k := int(min(r.left, r.max))
	r.left -= int64(k)
	r.max = RunLen
	b, prev := r.b, r.prev
	// One-byte varints (gaps and labels below 128), and two-byte gaps,
	// are read inline.
	for i := 0; i < k; i++ {
		gap, n := uint64(b[0]), 1
		if gap >= 0x80 {
			if b[1] < 0x80 {
				gap, n = gap&0x7f|uint64(b[1])<<7, 2
			} else {
				gap, n = binary.Uvarint(b)
			}
		}
		if r.first {
			// The first gap is relative to the vertex id, zig-zag coded.
			r.first = false
			prev += unzigzag(gap)
		} else {
			prev += int64(gap)
		}
		r.adj[i] = uint32(prev)
		b = b[n:]
		if labels {
			t, n := uint64(b[0]), 1
			if t >= 0x80 {
				t, n = binary.Uvarint(b)
			}
			r.ts[i] = uint32(t)
			b = b[n:]
		} else {
			n := 1
			for b[n-1] >= 0x80 {
				n++
			}
			b = b[n:]
		}
	}
	r.b, r.prev = b, prev
	return r.adj[:k], r.ts[:k]
}

// skip decodes past the next k arcs without storing them.
func (r *Run) skip(k int64) {
	b, prev := r.b, r.prev
	for ; k > 0; k-- {
		gap, n := binary.Uvarint(b)
		if r.first {
			r.first = false
			prev += unzigzag(gap)
		} else {
			prev += int64(gap)
		}
		_, m := binary.Uvarint(b[n:])
		b = b[n+m:]
	}
	r.b, r.prev = b, prev
}
