package snapmgr

import (
	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/reorder"
)

// Layout selects the storage format a manager publishes its snapshots
// in. Plain is the seed behavior: the store materialized as-is into CSR.
// Degree publishes a CSR whose vertex ids are permuted hubs-first for
// locality (the permutation and its inverse ride on the View, and every
// facade query translates ids at the boundary so callers only ever see
// original ids). Compressed publishes gap-coded adjacency bytes that
// every kernel decodes on the fly, a run of arcs at a time, in the same
// body it runs on a CSR (compress.Arcs).
type Layout int

const (
	// LayoutPlain is the unpermuted CSR snapshot.
	LayoutPlain Layout = iota
	// LayoutDegree relabels hubs-first (reorder.ByDegree).
	LayoutDegree
	// LayoutCompressed publishes gap-compressed adjacency
	// (compress.Graph) instead of CSR arrays.
	LayoutCompressed
)

// String names the layout the way the bench figures and /stats report it.
func (l Layout) String() string {
	switch l {
	case LayoutPlain:
		return "plain"
	case LayoutDegree:
		return "degree"
	case LayoutCompressed:
		return "compressed"
	}
	return "unknown"
}

// permStaleFrac is the churn threshold for the degree layout: once
// the cumulative dirty-vertex count since the permutation was computed
// exceeds this fraction of the vertex set, the locality argument for the
// old ordering has decayed and the next refresh recomputes the
// permutation with a full permuted rebuild instead of splicing deltas
// through the stale one.
const permStaleFrac = 0.30

// View is one published snapshot in its storage layout. Exactly one of
// G (CSR layouts) and C (compressed) is non-nil. For the degree
// layout, G lives in permuted id space and Perm/Inv translate:
// layoutID = Perm[origID], origID = Inv[layoutID]; both are nil for
// plain and compressed views (identity). Views are immutable and, like
// the csr snapshots they wrap, reclaimed by GC once the last reader
// drops them.
type View struct {
	G      *csr.Graph
	C      *compress.Graph
	Perm   reorder.Permutation
	Inv    reorder.Permutation
	Layout Layout
}

// NumVertices returns the vertex count of the viewed snapshot.
func (v *View) NumVertices() int {
	if v.C != nil {
		return v.C.N
	}
	return v.G.N
}

// NumEdges returns the arc count of the viewed snapshot.
func (v *View) NumEdges() int64 {
	if v.C != nil {
		return v.C.NumEdges()
	}
	return v.G.NumEdges()
}

// SizeBytes returns the snapshot's in-memory footprint in this layout:
// the graph arrays (or compressed payload plus offsets) and, for a
// degree view, the carried permutation pair.
func (v *View) SizeBytes() int64 {
	var b int64
	if v.C != nil {
		b = v.C.FootprintBytes()
	} else {
		b = v.G.SizeBytes()
	}
	return b + 4*int64(len(v.Perm)) + 4*int64(len(v.Inv))
}

// NewLayout is New publishing snapshots in the given layout: the initial
// materialization and every later Refresh produce that format.
func NewLayout(workers int, store *dyngraph.Tracked, layout Layout) *Manager {
	m := &Manager{store: store, layout: layout, kick: make(chan struct{}, 1)}
	m.Refresh(workers)
	return m
}

// Layout returns the storage format this manager publishes.
func (m *Manager) Layout() Layout { return m.layout }

// View returns the latest published snapshot in its storage layout: one
// atomic load, never blocking. Prefer View over Current for layout-aware
// readers; Current remains the plain-CSR accessor and returns nil under
// LayoutCompressed.
func (m *Manager) View() *View { return m.view.Load() }

// materialize builds the next View from the store under the exclusive
// gate. prev is the previously published view (nil on the first call),
// d the flushed window. A no-op refresh (the delta rebuild hands back
// the previous representation unchanged) republishes prev itself,
// preserving snapshot identity for caches keyed by the view pointer.
// Only the plain layout reads the key log and reports refresh stats;
// the permuted and compressed delta paths are vertex-granular.
func (m *Manager) materialize(workers int, prev *View, d csr.Delta) (v *View, st csr.RefreshStats) {
	switch m.layout {
	case LayoutCompressed:
		var base *compress.Graph
		if prev != nil {
			base = prev.C
		}
		c := compress.Refresh(workers, base, m.store, d.Dirty)
		if prev != nil && c == prev.C {
			return prev, st
		}
		return &View{C: c, Layout: m.layout}, st
	case LayoutDegree:
		return m.materializePermuted(workers, prev, d.Dirty), st
	default:
		var base *csr.Graph
		if prev != nil {
			base = prev.G
		}
		var g *csr.Graph
		g, st = csr.RefreshDelta(workers, base, m.store, d)
		if prev != nil && g == prev.G {
			return prev, st
		}
		return &View{G: g, Layout: LayoutPlain}, st
	}
}

// materializePermuted handles the degree layout: splice deltas
// through the held permutation while it is fresh, recompute it (full
// permuted rebuild) once the vertex set grew or cumulative churn crossed
// permStaleFrac of the vertex count.
func (m *Manager) materializePermuted(workers int, prev *View, dirty []uint32) *View {
	n := m.store.NumVertices()
	m.churn += len(dirty)
	stale := prev == nil || len(prev.Perm) != n ||
		float64(m.churn) > permStaleFrac*float64(n)
	if !stale {
		g := reorder.RefreshPermuted(workers, prev.G, m.store, dirty, prev.Perm, prev.Inv)
		if g == prev.G {
			return prev // no-op refresh: keep the published view's identity
		}
		if g != nil {
			return &View{G: g, Perm: prev.Perm, Inv: prev.Inv, Layout: m.layout}
		}
	}
	plain := csr.FromStore(workers, m.store)
	perm := reorder.ByDegree(plain)
	inv := perm.Inverse()
	m.churn = 0
	return &View{
		G:      reorder.ApplyInto(workers, plain, perm, inv, nil),
		Perm:   perm,
		Inv:    inv,
		Layout: m.layout,
	}
}
