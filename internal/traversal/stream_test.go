package traversal

import (
	"sort"
	"testing"

	"snapdyn/internal/cc"
	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
)

// streamPair builds an R-MAT CSR and its compressed twin.
func streamPair(t testing.TB, scale, edgeFactor int, tmax uint32, seed uint64) (*csr.Graph, *compress.Graph) {
	t.Helper()
	g := rmatGraph(t, scale, edgeFactor, tmax, seed)
	return g, compress.FromCSR(0, g)
}

func TestRunStreamMatchesRun(t *testing.T) {
	g, cg := streamPair(t, 11, 8, 0, 41)
	for _, src := range []uint32{0, 7, 512, 1999} {
		want := Run(g, []uint32{src}, Options{Workers: 4}, nil, nil)
		for _, workers := range []int{1, 4} {
			for _, strat := range []Strategy{TopDown, DirectionOpt} {
				got := RunStream(cg, []uint32{src},
					Options{Workers: workers, Strategy: strat}, nil, nil)
				levelsEqual(t, "stream", got.Level, want.Level)
				if got.Reached != want.Reached || got.Levels != want.Levels {
					t.Fatalf("src=%d workers=%d strat=%d: reached/levels %d/%d, want %d/%d",
						src, workers, strat, got.Reached, got.Levels, want.Reached, want.Levels)
				}
			}
		}
	}
}

func TestRunStreamForcedPull(t *testing.T) {
	g, cg := streamPair(t, 10, 5, 0, 43)
	want := BFS(2, g, 3)
	for _, workers := range []int{1, 4} {
		opt := forcePull
		opt.Workers = workers
		got := RunStream(cg, []uint32{3}, opt, nil, nil)
		levelsEqual(t, "stream-pull", got.Level, want.Level)
		if got.Reached != want.Reached || got.Levels != want.Levels {
			t.Fatalf("reached/levels %d/%d, want %d/%d",
				got.Reached, got.Levels, want.Reached, want.Levels)
		}
	}
}

func TestRunStreamTemporalFilter(t *testing.T) {
	g, cg := streamPair(t, 10, 6, 50, 47)
	filter := TimeWindow(10, 30)
	want := TemporalBFS(4, g, 1, filter)
	got := RunStream(cg, []uint32{1},
		Options{Workers: 4, Filter: filter}, nil, nil)
	levelsEqual(t, "stream-temporal", got.Level, want.Level)
	if got.Reached != want.Reached || got.Levels != want.Levels {
		t.Fatalf("reached/levels %d/%d, want %d/%d",
			got.Reached, got.Levels, want.Reached, want.Levels)
	}
}

func TestRunStreamMultiSource(t *testing.T) {
	g, cg := streamPair(t, 10, 3, 0, 53)
	sources := []uint32{0, 100, 200, 999}
	want := MultiBFS(4, g, sources)
	got := RunStream(cg, sources, Options{Workers: 4, Strategy: DirectionOpt}, nil, nil)
	levelsEqual(t, "stream-multi", got.Level, want.Level)
	if got.Reached != want.Reached {
		t.Fatalf("reached %d, want %d", got.Reached, want.Reached)
	}
}

// TestRunStreamOnArcDAG asserts the visitor path observes exactly the
// same predecessor-arc multiset as the CSR engine: (u, v, t, level) for
// every arc settling at its head's discovery level. Claim winners may
// differ (adjacency order differs between the representations), so the
// comparison is order- and claim-flag-insensitive.
func TestRunStreamOnArcDAG(t *testing.T) {
	g, cg := streamPair(t, 9, 6, 20, 59)
	type obs struct {
		u, v uint32
		t    uint32
	}
	collect := func(run func(h Hooks) *Result) []obs {
		var arcs []obs
		h := Hooks{OnArc: func(u, v uint32, ts uint32, _ bool) {
			arcs = append(arcs, obs{u, v, ts})
		}}
		run(h)
		sort.Slice(arcs, func(a, b int) bool {
			if arcs[a].u != arcs[b].u {
				return arcs[a].u < arcs[b].u
			}
			if arcs[a].v != arcs[b].v {
				return arcs[a].v < arcs[b].v
			}
			return arcs[a].t < arcs[b].t
		})
		return arcs
	}
	want := collect(func(h Hooks) *Result {
		return Run(g, []uint32{5}, Options{Workers: 1, Hooks: h}, nil, nil)
	})
	got := collect(func(h Hooks) *Result {
		return RunStream(cg, []uint32{5}, Options{Workers: 1, Hooks: h}, nil, nil)
	})
	if len(got) != len(want) {
		t.Fatalf("observed %d arcs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arc %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestStreamComponentsMatchCC(t *testing.T) {
	g, cg := streamPair(t, 10, 2, 0, 61)
	want := cc.Components(4, g)
	comp := cc.ComponentsArcs(1, compress.Arcs{C: cg}, nil)
	for v := range want {
		if comp[v] != want[v] {
			t.Fatalf("comp[%d] = %d, want %d", v, comp[v], want[v])
		}
	}
	// Reuse path: same buffers, same answer.
	comp2 := cc.ComponentsArcs(1, compress.Arcs{C: cg}, comp)
	for v := range want {
		if comp2[v] != want[v] {
			t.Fatalf("reused comp[%d] = %d, want %d", v, comp2[v], want[v])
		}
	}
}

// TestStreamSteadyStateAllocations is the compressed twin of
// TestSteadyStateAllocations: a serial warm RunStream must allocate
// nothing at all (the ISSUE's acceptance bar for engine-on-compressed),
// and parallel runs only the O(workers) fan-out.
func TestStreamSteadyStateAllocations(t *testing.T) {
	scratch := NewScratch()
	res := &Result{}
	sources := []uint32{0}
	measure := func(scale, workers int) float64 {
		g := rmatGraph(t, scale, 8, 0, 21)
		cg := compress.FromCSR(0, g)
		opt := Options{Workers: workers, Strategy: DirectionOpt}
		RunStream(cg, sources, opt, scratch, res) // warm up the arena
		return testing.AllocsPerRun(10, func() {
			RunStream(cg, sources, opt, scratch, res)
		})
	}
	if allocs := measure(12, 1); allocs > 0 {
		t.Fatalf("serial steady-state allocs/run = %g, want 0", allocs)
	}
	small, large := measure(10, 4), measure(14, 4)
	if small > 64 || large > 64 {
		t.Fatalf("steady-state allocs/run = %g (2^10), %g (2^14); want <= 64", small, large)
	}
	if large > 2*small+8 {
		t.Fatalf("allocs grow with graph size: %g (2^10) -> %g (2^14)", small, large)
	}
}

func TestStreamComponentsSteadyStateAllocations(t *testing.T) {
	g := rmatGraph(t, 11, 2, 0, 67)
	cg := compress.FromCSR(0, g)
	comp := cc.ComponentsArcs(1, compress.Arcs{C: cg}, nil)
	allocs := testing.AllocsPerRun(10, func() {
		comp = cc.ComponentsArcs(1, compress.Arcs{C: cg}, comp)
	})
	if allocs > 0 {
		t.Fatalf("warm compressed ComponentsArcs allocs/run = %g, want 0", allocs)
	}
	_ = comp
}

// Adversarial shapes through the stream engine, mirroring
// TestDirectionOptAdversarialShapes.
func TestRunStreamAdversarialShapes(t *testing.T) {
	const n = 3000
	var star []edge.Edge
	for v := uint32(1); v < n; v++ {
		star = append(star, edge.Edge{U: 0, V: v})
	}
	var path []edge.Edge
	for v := uint32(0); v < 99; v++ {
		path = append(path, edge.Edge{U: v, V: v + 1})
	}
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
		cg := compress.FromCSR(0, g)
		want := BFS(4, g, tc.src)
		for _, opt := range []Options{
			{Workers: 4, Strategy: DirectionOpt},
			{Workers: 4, Strategy: forcePull.Strategy, Alpha: forcePull.Alpha, Beta: forcePull.Beta},
		} {
			got := RunStream(cg, []uint32{tc.src}, opt, nil, nil)
			levelsEqual(t, tc.name, got.Level, want.Level)
			if got.Reached != want.Reached || got.Levels != want.Levels {
				t.Fatalf("%s: reached/levels %d/%d, want %d/%d",
					tc.name, got.Reached, got.Levels, want.Reached, want.Levels)
			}
		}
	}
}
