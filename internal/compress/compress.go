// Package compress implements the compressed adjacency representation the
// paper lists as future work ("we intend to explore compressed adjacency
// representations to reduce the memory footprint"), following the
// WebGraph-style scheme it cites: per-vertex neighbor lists are sorted
// and gap-encoded with variable-length integers, exploiting the locality
// and skew of small-world graphs.
//
// The representation is immutable and traversal-oriented: Cursor streams
// a vertex's arcs with zero allocations, so the shared traversal engine
// (internal/traversal RunStream) runs BFS and hook kernels directly on
// the compressed bytes without materializing adjacency. Per-vertex blocks
// are self-contained, which is what makes Refresh a byte-splice: clean
// vertices are copied as raw byte runs, only dirty vertices re-encode.
// A round trip through ToCSR restores the uncompressed snapshot
// (neighbor order within a vertex becomes sorted).
package compress

import (
	"encoding/binary"
	"sort"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// Graph is a gap-compressed immutable adjacency structure.
type Graph struct {
	N int
	// offsets[u] .. offsets[u+1] delimit u's encoded block in data.
	offsets []int64
	// data holds, per vertex: varint degree, then for each arc (sorted by
	// neighbor id) the varint neighbor gap (first neighbor is stored
	// relative to the vertex id, zig-zag encoded; subsequent ones as
	// plain gaps) followed by the varint time label.
	data []byte
	// m and maxDeg are cached at build/refresh time so the traversal
	// engine's direction-optimizing thresholds need no decode pass.
	m      int64
	maxDeg int64
}

// zigzag encodes a signed delta as an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// storeView is the minimal dynamic-graph surface compress needs; it
// matches dyngraph.Store without importing it.
type storeView interface {
	NumVertices() int
	Degree(u edge.ID) int
	Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool)
}

// appendVertex encodes one vertex's arc list (already sorted by neighbor
// id) onto enc and returns the extended buffer.
func appendVertex(enc []byte, u int, adj, ts []uint32, order []int) []byte {
	enc = binary.AppendUvarint(enc, uint64(len(order)))
	prev := int64(u) // first gap is relative to the vertex id
	first := true
	for _, i := range order {
		v := int64(adj[i])
		if first {
			enc = binary.AppendUvarint(enc, zigzag(v-prev))
			first = false
		} else {
			enc = binary.AppendUvarint(enc, uint64(v-prev))
		}
		prev = v
		enc = binary.AppendUvarint(enc, uint64(ts[i]))
	}
	return enc
}

// sortOrder fills order with 0..len(adj)-1 stably sorted by neighbor id,
// so the encoded arc order is deterministic regardless of store
// enumeration order of equal neighbors.
func sortOrder(order []int, adj []uint32) []int {
	order = order[:0]
	for i := range adj {
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool { return adj[order[a]] < adj[order[b]] })
	return order
}

// FromCSR builds a compressed graph from a CSR snapshot in parallel.
func FromCSR(workers int, g *csr.Graph) *Graph {
	n := g.N
	// Pass 1: encode each vertex into a private buffer, recording sizes.
	bufs := make([][]byte, n)
	sizes := make([]int64, n+1)
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		var order []int
		enc := make([]byte, 0, 64)
		for u := lo; u < hi; u++ {
			adj, ts := g.Neighbors(edge.ID(u))
			order = sortOrder(order, adj)
			enc = appendVertex(enc[:0], u, adj, ts, order)
			bufs[u] = append([]byte(nil), enc...)
			sizes[u] = int64(len(enc))
		}
	})
	total := psort.ExclusiveScan(workers, sizes)
	out := &Graph{
		N:       n,
		offsets: sizes,
		data:    make([]byte, total),
		m:       g.NumEdges(),
		maxDeg:  g.MaxDegree(),
	}
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			copy(out.data[out.offsets[u]:], bufs[u])
		}
	})
	return out
}

// FromStore snapshots a dynamic graph store straight into compressed
// form. The arc order per vertex matches FromCSR over csr.FromStore of
// the same store (stable sort by neighbor id of the store's enumeration
// order), so Refresh can splice against either origin byte-identically.
func FromStore(workers int, s storeView) *Graph {
	n := s.NumVertices()
	bufs := make([][]byte, n)
	sizes := make([]int64, n+1)
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		var adj, ts []uint32
		var order []int
		enc := make([]byte, 0, 64)
		for u := lo; u < hi; u++ {
			adj, ts = adj[:0], ts[:0]
			s.Neighbors(edge.ID(u), func(v edge.ID, t uint32) bool {
				adj = append(adj, v)
				ts = append(ts, t)
				return true
			})
			order = sortOrder(order, adj)
			enc = appendVertex(enc[:0], u, adj, ts, order)
			bufs[u] = append([]byte(nil), enc...)
			sizes[u] = int64(len(enc))
		}
	})
	total := psort.ExclusiveScan(workers, sizes)
	out := &Graph{N: n, offsets: sizes, data: make([]byte, total)}
	par.ForDynamic(workers, n, 256, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			copy(out.data[out.offsets[u]:], bufs[u])
		}
	})
	out.m, out.maxDeg = out.shape(workers)
	return out
}

// Refresh produces the compressed snapshot of s, splicing unchanged
// vertices' encoded blocks out of base as raw byte runs and re-encoding
// only the dirty vertices. Output is byte-identical to FromStore. Falls
// back to a full FromStore build when there is no usable base, the
// vertex count changed, or the dirty fraction exceeds
// csr.RefreshMaxDirtyFrac (same threshold as the CSR delta path).
func Refresh(workers int, base *Graph, s storeView, dirty []uint32) *Graph {
	n := s.NumVertices()
	if base == nil || base.N != n || n == 0 ||
		float64(len(dirty)) > csr.RefreshMaxDirtyFrac*float64(n) {
		return FromStore(workers, s)
	}
	if len(dirty) == 0 {
		return base
	}
	isDirty := make([]bool, n)
	for _, d := range dirty {
		if int(d) < n {
			isDirty[d] = true
		}
	}
	// Re-encode dirty vertices into private buffers.
	bufs := make([][]byte, len(dirty))
	sizes := make([]int64, n+1)
	par.ForDynamic(workers, n, 512, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if !isDirty[u] {
				sizes[u] = base.offsets[u+1] - base.offsets[u]
			}
		}
	})
	par.ForDynamic(workers, len(dirty), 64, func(lo, hi int) {
		var adj, ts []uint32
		var order []int
		enc := make([]byte, 0, 64)
		for i := lo; i < hi; i++ {
			u := int(dirty[i])
			if u >= n {
				continue
			}
			adj, ts = adj[:0], ts[:0]
			s.Neighbors(edge.ID(u), func(v edge.ID, t uint32) bool {
				adj = append(adj, v)
				ts = append(ts, t)
				return true
			})
			order = sortOrder(order, adj)
			enc = appendVertex(enc[:0], u, adj, ts, order)
			bufs[i] = append([]byte(nil), enc...)
			sizes[u] = int64(len(enc))
		}
	})
	dirtyBuf := make(map[int][]byte, len(dirty))
	for i, d := range dirty {
		dirtyBuf[int(d)] = bufs[i]
	}
	total := psort.ExclusiveScan(workers, sizes)
	out := &Graph{N: n, offsets: sizes, data: make([]byte, total)}
	// Scatter: bulk-copy maximal clean byte runs, splice dirty blocks.
	par.ForDynamic(workers, n, 512, func(lo, hi int) {
		for u := lo; u < hi; {
			if isDirty[u] {
				copy(out.data[out.offsets[u]:], dirtyBuf[u])
				u++
				continue
			}
			run := u + 1
			for run < hi && !isDirty[run] {
				run++
			}
			copy(out.data[out.offsets[u]:out.offsets[run]],
				base.data[base.offsets[u]:base.offsets[run]])
			u = run
		}
	})
	out.m, out.maxDeg = out.shape(workers)
	return out
}

// shape recomputes the cached arc count and max degree by decoding each
// vertex's leading degree varint (one byte for degrees < 128).
func (g *Graph) shape(workers int) (m, maxDeg int64) {
	type acc struct{ m, maxDeg int64 }
	r := par.Reduce(workers, g.N, acc{},
		func(a acc, u int) acc {
			d := g.Degree(edge.ID(u))
			a.m += d
			if d > a.maxDeg {
				a.maxDeg = d
			}
			return a
		},
		func(a, b acc) acc {
			a.m += b.m
			if b.maxDeg > a.maxDeg {
				a.maxDeg = b.maxDeg
			}
			return a
		})
	return r.m, r.maxDeg
}

// Degree returns u's arc count.
func (g *Graph) Degree(u edge.ID) int64 {
	b := g.data[g.offsets[u]:g.offsets[u+1]]
	d, _ := binary.Uvarint(b)
	return int64(d)
}

// Cursor streams one vertex's arcs without allocating. It is valid until
// the Graph it was begun on is released; Begin may be called repeatedly
// on the same Cursor to reuse it across vertices.
type Cursor struct {
	b     []byte
	rem   uint64
	prev  int64
	first bool
}

// Begin positions c at the start of u's arc list.
func (g *Graph) Begin(c *Cursor, u edge.ID) {
	b := g.data[g.offsets[u]:g.offsets[u+1]]
	d, k := binary.Uvarint(b)
	c.b = b[k:]
	c.rem = d
	c.prev = int64(u)
	c.first = true
}

// Len returns how many arcs are left to decode: right after Begin, the
// vertex's degree, read from its block header.
func (c *Cursor) Len() int64 { return int64(c.rem) }

// Next decodes the next arc, returning ok=false when the list is
// exhausted. Arcs arrive in increasing neighbor order. A one-byte
// varint (a gap or label below 128) is read inline; longer ones go
// through binary.Uvarint.
func (c *Cursor) Next() (v edge.ID, t uint32, ok bool) {
	if c.rem == 0 {
		return 0, 0, false
	}
	b := c.b
	raw, k := uint64(b[0]), 1
	if raw >= 0x80 {
		raw, k = binary.Uvarint(b)
	}
	b = b[k:]
	var nv int64
	if c.first {
		nv = c.prev + unzigzag(raw)
		c.first = false
	} else {
		nv = c.prev + int64(raw)
	}
	c.prev = nv
	tw, k := uint64(b[0]), 1
	if tw >= 0x80 {
		tw, k = binary.Uvarint(b)
	}
	c.b = b[k:]
	c.rem--
	return uint32(nv), uint32(tw), true
}

// Neighbors decodes u's arcs in increasing neighbor order, calling fn
// until it returns false.
func (g *Graph) Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool) {
	var c Cursor
	g.Begin(&c, u)
	for {
		v, t, ok := c.Next()
		if !ok || !fn(v, t) {
			return
		}
	}
}

// NumEdges returns the total arc count (cached at build time).
func (g *Graph) NumEdges() int64 { return g.m }

// MaxDegree returns the largest out-degree (cached at build time).
func (g *Graph) MaxDegree() int64 { return g.maxDeg }

// DegreeSum returns the total out-degree of the given vertices, the
// frontier edge mass the direction-optimizing heuristic needs. Mirrors
// csr.Graph.DegreeSum including the closure-free serial path.
func (g *Graph) DegreeSum(workers int, vs []uint32) int64 {
	if workers == 1 || len(vs) < 4096 {
		var sum int64
		for _, v := range vs {
			sum += g.Degree(edge.ID(v))
		}
		return sum
	}
	return par.Reduce(workers, len(vs), int64(0),
		func(acc int64, i int) int64 { return acc + g.Degree(edge.ID(vs[i])) },
		func(a, b int64) int64 { return a + b })
}

// SizeBytes returns the compressed payload size (offsets excluded).
func (g *Graph) SizeBytes() int64 { return int64(len(g.data)) }

// FootprintBytes returns the full in-memory footprint: payload plus the
// per-vertex offset array. This is the number to compare against
// csr.Graph.SizeBytes when reporting bytes-per-edge.
func (g *Graph) FootprintBytes() int64 {
	return int64(len(g.data)) + 8*int64(len(g.offsets))
}

// CompressionRatio compares against the 8-byte-per-arc CSR encoding.
func (g *Graph) CompressionRatio() float64 {
	arcs := g.NumEdges()
	if arcs == 0 {
		return 1
	}
	return float64(arcs*8) / float64(len(g.data))
}

// ToCSR decompresses back into a CSR snapshot (arcs sorted per vertex).
func (g *Graph) ToCSR(workers int) *csr.Graph {
	counts := make([]int64, g.N+1)
	par.ForDynamic(workers, g.N, 256, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			counts[u] = g.Degree(edge.ID(u))
		}
	})
	total := psort.ExclusiveScan(workers, counts)
	out := &csr.Graph{
		N:       g.N,
		Offsets: counts,
		Adj:     make([]uint32, total),
		TS:      make([]uint32, total),
	}
	par.ForDynamic(workers, g.N, 256, func(lo, hi int) {
		var c Cursor
		for u := lo; u < hi; u++ {
			p := out.Offsets[u]
			g.Begin(&c, edge.ID(u))
			for {
				v, t, ok := c.Next()
				if !ok {
					break
				}
				out.Adj[p] = v
				out.TS[p] = t
				p++
			}
		}
	})
	return out
}
