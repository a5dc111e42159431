package snapmgr

import (
	"sort"
	"testing"

	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/xrand"
)

// arcSet returns u's (head, ts) arcs in original id space, sorted, for
// whichever representation the view holds.
func arcSet(v *View, u uint32) [][2]uint32 {
	var out [][2]uint32
	if v.C != nil {
		v.C.Neighbors(edge.ID(u), func(w edge.ID, t uint32) bool {
			out = append(out, [2]uint32{w, t})
			return true
		})
	} else {
		lu := u
		if v.Perm != nil {
			lu = v.Perm[u]
		}
		adj, ts := v.G.Neighbors(edge.ID(lu))
		for i := range adj {
			head := adj[i]
			if v.Inv != nil {
				head = v.Inv[head]
			}
			out = append(out, [2]uint32{head, ts[i]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// TestLayoutsStayEquivalentUnderChurn drives one store through repeated
// ingest/refresh cycles with a manager per layout and asserts every
// published view stays arc-for-arc identical to the plain manager's
// snapshot (translated back to original ids) — including across the
// churn threshold that forces the degree layout to recompute its
// permutation, and through the compressed delta splice.
func TestLayoutsStayEquivalentUnderChurn(t *testing.T) {
	const n = 256
	layouts := []Layout{LayoutPlain, LayoutDegree, LayoutCompressed}
	stores := make([]*struct {
		m *Manager
	}, len(layouts))
	r := xrand.New(99)
	// Shared initial edge batch, replayed into each layout's own store
	// (managers own their stores; updates are mirrored below).
	type arc struct{ u, v, t uint32 }
	var batch []arc
	for i := 0; i < 1500; i++ {
		batch = append(batch, arc{r.Uint32n(n), r.Uint32n(n), r.Uint32n(100)})
	}
	for i, l := range layouts {
		s := newStore(n)
		for _, a := range batch {
			s.Insert(a.u, a.v, a.t)
			s.Insert(a.v, a.u, a.t)
		}
		stores[i] = &struct{ m *Manager }{NewLayout(2, s, l)}
	}
	check := func(round int) {
		plain := stores[0].m.View()
		for i, l := range layouts[1:] {
			v := stores[i+1].m.View()
			if v.NumVertices() != plain.NumVertices() || v.NumEdges() != plain.NumEdges() {
				t.Fatalf("round %d %v: shape %d/%d, want %d/%d", round, l,
					v.NumVertices(), v.NumEdges(), plain.NumVertices(), plain.NumEdges())
			}
			for u := uint32(0); u < n; u++ {
				got, want := arcSet(v, u), arcSet(plain, u)
				if len(got) != len(want) {
					t.Fatalf("round %d %v: vertex %d degree %d, want %d", round, l, u, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("round %d %v: vertex %d arc %d: %v != %v", round, l, u, k, got[k], want[k])
					}
				}
			}
		}
	}
	check(0)
	// Churn: small rounds first (delta paths), then a huge round that
	// trips both the dirty-fraction fallback and the permutation-staleness
	// threshold.
	for round := 1; round <= 6; round++ {
		edits := 10
		if round == 5 {
			edits = 600
		}
		var updates []arc
		for i := 0; i < edits; i++ {
			updates = append(updates, arc{r.Uint32n(n), r.Uint32n(n), r.Uint32n(100)})
		}
		for _, st := range stores {
			st.m.Ingest(func(s *dyngraph.Tracked) {
				for _, a := range updates {
					s.Insert(a.u, a.v, a.t)
					s.Insert(a.v, a.u, a.t)
				}
			})
			st.m.Refresh(2)
		}
		check(round)
	}
}

func TestLayoutMetricsBytes(t *testing.T) {
	const n = 512
	build := func(l Layout) *Manager {
		s := newStore(n)
		r := xrand.New(7)
		for i := 0; i < 4000; i++ {
			u, v, ts := r.Uint32n(n), r.Uint32n(n), r.Uint32n(50)
			s.Insert(u, v, ts)
			s.Insert(v, u, ts)
		}
		return NewLayout(2, s, l)
	}
	plain := build(LayoutPlain)
	comp := build(LayoutCompressed)
	deg := build(LayoutDegree)
	pm, cm, rm := plain.Metrics(), comp.Metrics(), deg.Metrics()
	if pm.SnapshotBytes <= 0 || cm.SnapshotBytes <= 0 || rm.SnapshotBytes <= 0 {
		t.Fatalf("SnapshotBytes unset: plain %d, compressed %d, degree %d",
			pm.SnapshotBytes, cm.SnapshotBytes, rm.SnapshotBytes)
	}
	if pm.Format != "plain" || cm.Format != "compressed" || rm.Format != "degree" {
		t.Fatalf("formats %q/%q/%q", pm.Format, cm.Format, rm.Format)
	}
	if cm.SnapshotBytes >= pm.SnapshotBytes {
		t.Fatalf("compressed snapshot (%d B) not smaller than plain (%d B)",
			cm.SnapshotBytes, pm.SnapshotBytes)
	}
	// The reordered view carries perm+inv on top of the CSR arrays.
	if rm.SnapshotBytes <= pm.SnapshotBytes {
		t.Fatalf("reordered snapshot (%d B) should exceed plain (%d B) by the permutation pair",
			rm.SnapshotBytes, pm.SnapshotBytes)
	}
	if plain.Layout() != LayoutPlain || comp.Layout() != LayoutCompressed {
		t.Fatal("Layout() accessor wrong")
	}
	if comp.Current() != nil {
		t.Fatal("Current() must be nil under LayoutCompressed")
	}
	if comp.View().C == nil || plain.View().G == nil {
		t.Fatal("View() missing representation")
	}
	var _ *csr.Graph = plain.Current()
}
