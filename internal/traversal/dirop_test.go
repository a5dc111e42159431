package traversal

import (
	"testing"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
)

// forcePull makes the direction heuristic enter bottom-up at level 1 and
// never leave it, so tests cover the pull step on any graph shape.
var forcePull = Options{Strategy: DirectionOpt, Alpha: 1 << 40, Beta: 1 << 40}

func levelsEqual(t *testing.T, name string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: level length %d != %d", name, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: level[%d] = %d, want %d", name, v, got[v], want[v])
		}
	}
}

// checkParents verifies the parent array is a valid BFS forest: each
// reached non-source vertex has a reached parent one level closer that
// is an actual in-neighbor.
func checkParents(t *testing.T, g *csr.Graph, res *Result) {
	t.Helper()
	for v := range res.Level {
		if res.Level[v] <= 0 {
			continue // unreached or source
		}
		p := res.Parent[v]
		if res.Level[p] != res.Level[v]-1 {
			t.Fatalf("parent level invariant broken at %d: level %d, parent %d at %d",
				v, res.Level[v], p, res.Level[p])
		}
		adj, _ := g.Neighbors(p)
		ok := false
		for _, w := range adj {
			if w == uint32(v) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("parent %d of %d is not adjacent", p, v)
		}
	}
}

func rmatGraph(t testing.TB, scale, edgeFactor int, tmax uint32, seed uint64) *csr.Graph {
	t.Helper()
	p := rmat.PaperParams(scale, edgeFactor*(1<<scale), tmax, seed)
	edges, err := rmat.Generate(0, p)
	if err != nil {
		t.Fatal(err)
	}
	return csr.FromEdges(0, p.NumVertices(), edges, true)
}

func TestDirectionOptMatchesTopDownRMAT(t *testing.T) {
	g := rmatGraph(t, 12, 8, 0, 31)
	for _, src := range []uint32{0, 7, 512, 4000} {
		want := Run(g, []uint32{src}, Options{Workers: 4}, nil, nil)
		for _, workers := range []int{1, 4, 8} {
			got := Run(g, []uint32{src},
				Options{Workers: workers, Strategy: DirectionOpt}, nil, nil)
			levelsEqual(t, "dirop", got.Level, want.Level)
			if got.Reached != want.Reached || got.Levels != want.Levels {
				t.Fatalf("src=%d workers=%d: reached/levels %d/%d, want %d/%d",
					src, workers, got.Reached, got.Levels, want.Reached, want.Levels)
			}
			checkParents(t, g, got)
		}
	}
}

func TestForcedBottomUpMatchesTopDown(t *testing.T) {
	g := rmatGraph(t, 11, 5, 0, 77)
	for _, workers := range []int{1, 4} {
		want := BFS(workers, g, 3)
		opt := forcePull
		opt.Workers = workers
		got := Run(g, []uint32{3}, opt, nil, nil)
		levelsEqual(t, "forced-pull", got.Level, want.Level)
		if got.Reached != want.Reached || got.Levels != want.Levels {
			t.Fatalf("reached/levels %d/%d, want %d/%d",
				got.Reached, got.Levels, want.Reached, want.Levels)
		}
		checkParents(t, g, got)
	}
}

func TestDirectionOptAdversarialShapes(t *testing.T) {
	// Star: one pull step discovers every leaf.
	const n = 3000
	var star []edge.Edge
	for v := uint32(1); v < n; v++ {
		star = append(star, edge.Edge{U: 0, V: v})
	}
	// Path: worst case for pull (frontier never gains mass).
	var path []edge.Edge
	for v := uint32(0); v < 99; v++ {
		path = append(path, edge.Edge{U: v, V: v + 1})
	}
	// Disconnected pairs plus isolated vertices.
	discon := []edge.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 5, V: 6}}

	cases := []struct {
		name  string
		n     int
		edges []edge.Edge
		src   uint32
	}{
		{"star-hub", n, star, 0},
		{"star-leaf", n, star, 17},
		{"path-head", 100, path, 0},
		{"path-mid", 100, path, 50},
		{"disconnected", 8, discon, 0},
	}
	for _, tc := range cases {
		g := csr.FromEdges(0, tc.n, tc.edges, true)
		want := BFS(4, g, tc.src)
		for _, opt := range []Options{
			{Workers: 4, Strategy: DirectionOpt},
			{Workers: 4, Strategy: forcePull.Strategy, Alpha: forcePull.Alpha, Beta: forcePull.Beta},
		} {
			got := Run(g, []uint32{tc.src}, opt, nil, nil)
			levelsEqual(t, tc.name, got.Level, want.Level)
			if got.Reached != want.Reached || got.Levels != want.Levels {
				t.Fatalf("%s: reached/levels %d/%d, want %d/%d",
					tc.name, got.Reached, got.Levels, want.Reached, want.Levels)
			}
			checkParents(t, g, got)
		}
	}
}

func TestDirectionOptMultiSource(t *testing.T) {
	g := rmatGraph(t, 10, 3, 0, 9)
	sources := []uint32{0, 100, 200, 999}
	want := MultiBFS(4, g, sources)
	got := Run(g, sources, Options{Workers: 4, Strategy: DirectionOpt}, nil, nil)
	levelsEqual(t, "multi", got.Level, want.Level)
	if got.Reached != want.Reached {
		t.Fatalf("reached %d, want %d", got.Reached, want.Reached)
	}
}

func TestDirectionOptTemporalFilter(t *testing.T) {
	g := rmatGraph(t, 11, 6, 50, 13)
	filter := TimeWindow(10, 30)
	want := TemporalBFS(4, g, 1, filter)
	got := Run(g, []uint32{1},
		Options{Workers: 4, Strategy: DirectionOpt, Filter: filter}, nil, nil)
	levelsEqual(t, "temporal", got.Level, want.Level)
	if got.Reached != want.Reached || got.Levels != want.Levels {
		t.Fatalf("reached/levels %d/%d, want %d/%d",
			got.Reached, got.Levels, want.Reached, want.Levels)
	}
	// And under forced pull.
	opt := forcePull
	opt.Filter = filter
	got = Run(g, []uint32{1}, opt, nil, nil)
	levelsEqual(t, "temporal-pull", got.Level, want.Level)
}

func TestScratchAndResultReuse(t *testing.T) {
	scratch := NewScratch()
	res := &Result{}
	// Alternate between two graphs of different sizes so reuse must
	// handle regrowing and shrinking.
	big := rmatGraph(t, 11, 8, 0, 5)
	small := rmatGraph(t, 8, 4, 0, 6)
	wantBig := Run(big, []uint32{2}, Options{Workers: 4, Strategy: DirectionOpt}, nil, nil)
	wantSmall := Run(small, []uint32{2}, Options{Workers: 4, Strategy: DirectionOpt}, nil, nil)
	for i := 0; i < 6; i++ {
		g, want := big, wantBig
		if i%2 == 1 {
			g, want = small, wantSmall
		}
		got := Run(g, []uint32{2}, Options{Workers: 4, Strategy: DirectionOpt}, scratch, res)
		if got != res {
			t.Fatal("Run did not return the reused result")
		}
		levelsEqual(t, "reuse", got.Level, want.Level)
		if got.Reached != want.Reached || got.Levels != want.Levels {
			t.Fatalf("iteration %d: reached/levels diverged", i)
		}
	}
}

// TestParentOnRequest: a reused Result with a nil Parent records no
// parents and keeps Parent nil; one with a non-nil Parent gets a valid
// BFS forest, on every body (push and pull, fast and visitor) and on a
// compressed graph, across graph sizes.
func TestParentOnRequest(t *testing.T) {
	big, small := rmatGraph(t, 11, 8, 0, 5), rmatGraph(t, 8, 4, 0, 6)
	visit := Options{Hooks: Hooks{OnArc: func(uint32, uint32, uint32, bool) {}}}
	pullVisit := forcePull
	pullVisit.Hooks = visit.Hooks
	scratch := NewScratch()
	without, with := &Result{}, &Result{Parent: []uint32{}}
	for _, g := range []*csr.Graph{big, small, big} {
		cg := compress.FromCSR(0, g)
		for _, opt := range []Options{{}, {Strategy: DirectionOpt}, forcePull, visit, pullVisit} {
			for _, workers := range []int{1, 3} {
				opt.Workers = workers
				Run(g, []uint32{2}, opt, scratch, without)
				if without.Parent != nil {
					t.Fatalf("a nil Parent became %d entries", len(without.Parent))
				}
				Run(g, []uint32{2}, opt, scratch, with)
				levelsEqual(t, "with parent", with.Level, without.Level)
				checkParents(t, g, with)
				RunStream(cg, []uint32{2}, opt, scratch, with)
				checkParents(t, g, with)
			}
		}
	}
}

func TestSteadyStateAllocations(t *testing.T) {
	scratch := NewScratch()
	res := &Result{}
	sources := []uint32{0}
	measure := func(scale, workers int) float64 {
		g := rmatGraph(t, scale, 8, 0, 21)
		opt := Options{Workers: workers, Strategy: DirectionOpt}
		Run(g, sources, opt, scratch, res) // warm up the arena
		return testing.AllocsPerRun(10, func() {
			Run(g, sources, opt, scratch, res)
		})
	}
	// A serial steady-state traversal must not allocate at all: the
	// Scratch holds the frontiers, buckets, prefix-sum buffer, and the
	// executor's closure set, and the serial paths of the par/frontier
	// helpers avoid escaping state. Anything nonzero is a regression.
	if allocs := measure(12, 1); allocs > 0 {
		t.Fatalf("serial steady-state allocs/run = %g, want 0", allocs)
	}
	// Parallel runs may allocate the O(workers) goroutine fan-out, but
	// never anything O(n) or O(frontier): the count must be a small
	// constant independent of graph size.
	small, large := measure(10, 4), measure(14, 4)
	if small > 64 || large > 64 {
		t.Fatalf("steady-state allocs/run = %g (2^10), %g (2^14); want <= 64", small, large)
	}
	if large > 2*small+8 {
		t.Fatalf("allocs grow with graph size: %g (2^10) -> %g (2^14)", small, large)
	}
}

func TestDeriveThresholds(t *testing.T) {
	// Low skew: the global defaults, unchanged.
	p := rmatGraph(t, 10, 8, 0, 3) // path-adjacent skew well under the ref
	if a, b := DeriveThresholds(p); a > DefaultAlpha || b < DefaultBeta {
		t.Fatalf("low-skew thresholds moved the wrong way: alpha=%d beta=%d", a, b)
	}
	// A star graph is maximally skewed: alpha must drop (later pull
	// entry) and beta rise (longer pull stay), within the clamps.
	n := 1 << 12
	var edges []edge.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, edge.Edge{U: 0, V: uint32(v)})
	}
	star := csr.FromEdges(0, n, edges, true)
	a, b := DeriveThresholds(star)
	if a >= DefaultAlpha || b <= DefaultBeta {
		t.Fatalf("star thresholds not shifted: alpha=%d beta=%d", a, b)
	}
	if a < 6 || b > 28 {
		t.Fatalf("thresholds escaped clamps: alpha=%d beta=%d", a, b)
	}
	// Degenerate shapes fall back to the defaults.
	if a, b := DeriveThresholds(csr.FromEdges(1, 3, nil, false)); a != DefaultAlpha || b != DefaultBeta {
		t.Fatalf("empty-graph thresholds: alpha=%d beta=%d", a, b)
	}
	// Derived thresholds preserve traversal results: the switch points
	// only affect direction choice, never the BFS levels.
	g := rmatGraph(t, 11, 8, 0, 7)
	want := Run(g, []uint32{1}, Options{Workers: 2, Strategy: DirectionOpt, Alpha: DefaultAlpha, Beta: DefaultBeta}, nil, nil)
	got := Run(g, []uint32{1}, Options{Workers: 2, Strategy: DirectionOpt}, nil, nil)
	levelsEqual(t, "derived-thresholds", got.Level, want.Level)
	if got.Reached != want.Reached {
		t.Fatalf("reached %d, want %d", got.Reached, want.Reached)
	}
}
