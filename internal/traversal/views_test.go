package traversal

import (
	"sort"
	"testing"

	"snapdyn/internal/csr"
)

// splitViews splits g's arcs by owner: arc u->v goes in view u%p, in
// g's span order, and every view spans all of g's vertex ids.
func splitViews(g *csr.Graph, p int) []*csr.Graph {
	views := make([]*csr.Graph, p)
	for s := range views {
		h := &csr.Graph{N: g.N, Offsets: make([]int64, g.N+1)}
		for u := 0; u < g.N; u++ {
			if u%p == s {
				adj, ts := g.Neighbors(uint32(u))
				h.Adj = append(h.Adj, adj...)
				h.TS = append(h.TS, ts...)
			}
			h.Offsets[u+1] = int64(len(h.Adj))
		}
		views[s] = h
	}
	return views
}

// sortEvents orders arc events by every field, so equal multisets
// compare equal element by element.
func sortEvents(evs []arcEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.v != b.v {
			return a.v < b.v
		}
		if a.u != b.u {
			return a.u < b.u
		}
		if a.t != b.t {
			return a.t < b.t
		}
		return !a.claimed && b.claimed
	})
}

func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	levelsEqual(t, name, got.Level, want.Level)
	if got.Reached != want.Reached || got.Levels != want.Levels || got.PullLevels != want.PullLevels {
		t.Fatalf("%s: reached/levels/pull levels %d/%d/%d, want %d/%d/%d", name,
			got.Reached, got.Levels, got.PullLevels, want.Reached, want.Levels, want.PullLevels)
	}
}

// TestRunOverMatchesRun checks RunOver on a graph split by owner into
// P views against Run on the union: top-down, direction-optimizing,
// forced pull, a time window in both directions, and the OnArc visitor
// bodies.
func TestRunOverMatchesRun(t *testing.T) {
	g := rmatGraph(t, 11, 6, 50, 43)
	window := TimeWindow(10, 30)
	pullWindow := forcePull
	pullWindow.Filter = window
	cases := []struct {
		name string
		opt  Options
	}{
		{"top-down", Options{}},
		{"dirop", Options{Strategy: DirectionOpt}},
		{"forced-pull", forcePull},
		{"window", Options{Filter: window}},
		{"window-pull", pullWindow},
	}
	srcs := [][]uint32{{1}, {0, 700, 2047}}
	for _, p := range []int{1, 2, 3} {
		views := splitViews(g, p)
		for _, tc := range cases {
			for _, workers := range []int{1, 3} {
				for _, src := range srcs {
					opt := tc.opt
					opt.Workers = workers
					want := Run(g, src, opt, nil, nil)
					got := RunOver(views, src, opt, nil, nil)
					sameResult(t, tc.name, got, want)
				}
			}
		}

		// The visitor bodies, serially: the same arcs (a pull level
		// scans a chunk once per view, so in another order) and the
		// same parents.
		for _, tc := range cases {
			var wantArcs, gotArcs []arcEvent
			record := func(evs *[]arcEvent) Hooks {
				return Hooks{OnArc: func(u, v uint32, t uint32, claimed bool) {
					*evs = append(*evs, arcEvent{u, v, t, claimed})
				}}
			}
			opt := tc.opt
			opt.Workers = 1
			opt.Hooks = record(&wantArcs)
			want := Run(g, srcs[0], opt, nil, nil)
			opt.Hooks = record(&gotArcs)
			got := RunOver(views, srcs[0], opt, nil, nil)
			sameResult(t, tc.name+" on-arc", got, want)
			if len(gotArcs) != len(wantArcs) {
				t.Fatalf("p=%d %s: %d arcs observed, want %d", p, tc.name, len(gotArcs), len(wantArcs))
			}
			sortEvents(wantArcs)
			sortEvents(gotArcs)
			for i := range wantArcs {
				if gotArcs[i] != wantArcs[i] {
					t.Fatalf("p=%d %s: arc %d = %+v, want %+v", p, tc.name, i, gotArcs[i], wantArcs[i])
				}
			}
			for v := range want.Parent {
				if want.Level[v] > 0 && got.Parent[v] != want.Parent[v] {
					t.Fatalf("p=%d %s: parent[%d] = %d, want %d", p, tc.name, v, got.Parent[v], want.Parent[v])
				}
			}
		}
	}
}
