package compress_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
)

// fuzzArc is one source arc of FuzzCursorRoundTrip's adjacency.
type fuzzArc struct{ v, t uint32 }

// fuzzCSR builds a small CSR from fuzz bytes: data[0] picks the vertex
// count (1..16) and every following 5-byte record [u, vsel, vb, tsel,
// tb] adds one arc u -> v in record order. vsel picks an in-range id,
// id 0, an id near math.MaxUint32 (a maximal first gap in either
// direction) or a repeat of the previous arc's neighbor (a parallel
// arc); tsel picks a small label, math.MaxUint32 or a label near it.
// Vertices no record names stay empty.
func fuzzCSR(data []byte) *csr.Graph {
	n := 1 + int(data[0]%16)
	spans := make([][]fuzzArc, n)
	var prev uint32
	rec := data[1:]
	for i := 0; i < 512 && len(rec) >= 5; i, rec = i+1, rec[5:] {
		u := int(rec[0]) % n
		v := uint32(rec[2]) % uint32(n)
		switch rec[1] % 4 {
		case 1:
			v = 0
		case 2:
			v = math.MaxUint32 - uint32(rec[2])
		case 3:
			v = prev
		}
		t := uint32(rec[4])
		switch rec[3] % 3 {
		case 1:
			t = math.MaxUint32
		case 2:
			t = math.MaxUint32 - uint32(rec[4])
		}
		spans[u] = append(spans[u], fuzzArc{v, t})
		prev = v
	}
	g := &csr.Graph{N: n, Offsets: make([]int64, n+1)}
	for u, span := range spans {
		for _, a := range span {
			g.Adj = append(g.Adj, a.v)
			g.TS = append(g.TS, a.t)
		}
		g.Offsets[u+1] = int64(len(g.Adj))
	}
	return g
}

// FuzzCursorRoundTrip checks the varint block format at its edges:
// FromCSR then Begin/Next must yield exactly each vertex's span as a
// multiset, the cursor must stop at the block's end, the run decoder
// must yield exactly the cursor's sequence (see checkRuns), and ToCSR
// must return the source with each span stably sorted by neighbor id
// (the documented round-trip order), labels and parallel arcs included.
func FuzzCursorRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 1, 0, 7, 2, 0, 0, 0, 9})
	f.Add([]byte{15, 14, 1, 0, 1, 0, 14, 2, 0, 1, 0, 14, 3, 0, 2, 0, 0, 2, 255, 2, 255})
	f.Add([]byte{7, 6, 2, 0, 0, 3, 6, 3, 0, 0, 4, 6, 3, 0, 1, 0, 6, 0, 5, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := fuzzCSR(data)
		workers := 1 + int(data[0]>>7)
		cg := compress.FromCSR(workers, g)
		if cg.NumEdges() != g.NumEdges() || cg.MaxDegree() != g.MaxDegree() {
			t.Fatalf("shape (%d arcs, max degree %d), want (%d, %d)",
				cg.NumEdges(), cg.MaxDegree(), g.NumEdges(), g.MaxDegree())
		}
		byArc := func(a, b fuzzArc) int {
			return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.t, b.t))
		}
		var c compress.Cursor
		for u := 0; u < g.N; u++ {
			adj, ts := g.Neighbors(edge.ID(u))
			want := make([]fuzzArc, len(adj))
			for i := range adj {
				want[i] = fuzzArc{adj[i], ts[i]}
			}
			var got []fuzzArc
			cg.Begin(&c, edge.ID(u))
			for {
				v, lbl, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, fuzzArc{v, lbl})
				if len(got) > len(want) {
					t.Fatalf("vertex %d: cursor yields more than %d arcs", u, len(want))
				}
			}
			if _, _, ok := c.Next(); ok {
				t.Fatalf("vertex %d: cursor resumed after reporting its end", u)
			}
			checkRuns(t, cg, uint32(u), got)
			if cg.Degree(edge.ID(u)) != int64(len(want)) {
				t.Fatalf("vertex %d: Degree %d, want %d", u, cg.Degree(edge.ID(u)), len(want))
			}
			slices.SortFunc(got, byArc)
			slices.SortFunc(want, byArc)
			if !slices.Equal(got, want) {
				t.Fatalf("vertex %d: cursor arcs %v, want %v", u, got, want)
			}
		}

		back := cg.ToCSR(workers)
		want := &csr.Graph{N: g.N, Offsets: g.Offsets,
			Adj: slices.Clone(g.Adj), TS: slices.Clone(g.TS)}
		for u := 0; u < g.N; u++ {
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			span := make([]fuzzArc, hi-lo)
			for i := range span {
				span[i] = fuzzArc{g.Adj[lo+int64(i)], g.TS[lo+int64(i)]}
			}
			slices.SortStableFunc(span, func(a, b fuzzArc) int { return cmp.Compare(a.v, b.v) })
			for i, a := range span {
				want.Adj[lo+int64(i)], want.TS[lo+int64(i)] = a.v, a.t
			}
		}
		if back.N != want.N || !slices.Equal(back.Offsets, want.Offsets) ||
			!slices.Equal(back.Adj, want.Adj) || !slices.Equal(back.TS, want.TS) {
			t.Fatalf("ToCSR = %+v, want %+v", back, want)
		}
	})
}

// checkRuns holds the run decoder to the cursor's sequence seq of u's
// arcs: every window of u's arcs of length 1, RunLen-1, RunLen,
// RunLen+1 and the full degree — starting at the first arc, in the
// middle and ending at the last — decodes through SpanRange and Next to
// exactly that slice of seq, heads in order with their labels when
// labels are decoded and the heads alone when they are skipped, and
// Span reads the whole block the same way.
func checkRuns(t *testing.T, cg *compress.Graph, u uint32, seq []fuzzArc) {
	t.Helper()
	deg := int64(len(seq))
	decode := func(first func(r *compress.Run, labels bool) ([]uint32, []uint32), labels bool) []fuzzArc {
		var r compress.Run
		var out []fuzzArc
		for adj, ts := first(&r, labels); ; adj, ts = r.Next(labels) {
			if len(adj) > compress.RunLen || len(ts) != len(adj) {
				t.Fatalf("vertex %d: run of %d heads, %d labels", u, len(adj), len(ts))
			}
			for i, v := range adj {
				a := fuzzArc{v: v}
				if labels {
					a.t = ts[i]
				}
				out = append(out, a)
			}
			if r.Left() == 0 {
				if adj, _ := r.Next(labels); len(adj) != 0 {
					t.Fatalf("vertex %d: run decoder resumed after its end", u)
				}
				return out
			}
			if len(adj) == 0 {
				t.Fatalf("vertex %d: empty run with %d arcs left", u, r.Left())
			}
		}
	}
	want := func(lo, hi int64, labels bool) []fuzzArc {
		w := slices.Clone(seq[lo:hi])
		for i := range w {
			if !labels {
				w[i].t = 0
			}
		}
		return w
	}
	for _, labels := range []bool{true, false} {
		got := decode(func(r *compress.Run, labels bool) ([]uint32, []uint32) { return cg.Span(r, u, labels) }, labels)
		if w := want(0, deg, labels); !slices.Equal(got, w) {
			t.Fatalf("vertex %d labels=%v: Span runs %v, want %v", u, labels, got, w)
		}
		for _, n := range []int64{1, compress.RunLen - 1, compress.RunLen, compress.RunLen + 1, deg} {
			n = min(n, deg)
			for _, lo := range []int64{0, (deg - n) / 2, deg - n} {
				got := decode(func(r *compress.Run, labels bool) ([]uint32, []uint32) {
					return cg.SpanRange(r, u, lo, lo+n, labels)
				}, labels)
				if w := want(lo, lo+n, labels); !slices.Equal(got, w) {
					t.Fatalf("vertex %d labels=%v: SpanRange [%d,%d) runs %v, want %v", u, labels, lo, lo+n, got, w)
				}
			}
		}
	}
	var r compress.Run
	cg.Span(&r, u, false)
	if r.Degree() != deg {
		t.Fatalf("vertex %d: run degree %d, want %d", u, r.Degree(), deg)
	}
}
