package traversal

import (
	"sort"
	"testing"

	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
)

type arcEvent struct {
	u, v    uint32
	t       uint32
	claimed bool
}

// collectArcs runs a single-worker traversal recording every OnArc
// event.
func collectArcs(g *csr.Graph, src uint32, opt Options) ([]arcEvent, *Result) {
	var events []arcEvent
	opt.Workers = 1
	opt.Hooks.OnArc = func(u, v uint32, t uint32, claimed bool) {
		events = append(events, arcEvent{u, v, t, claimed})
	}
	res := Run(g, []uint32{src}, opt, nil, nil)
	return events, res
}

func sortArcs(evs []arcEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.v != b.v {
			return a.v < b.v
		}
		if a.u != b.u {
			return a.u < b.u
		}
		return a.t < b.t
	})
}

func TestOnArcEnumeratesDAGPredecessors(t *testing.T) {
	// Diamond 0-1-3, 0-2-3 plus a tail 3-4: vertex 3 has two same-level
	// predecessors (one claimed, one tie), the rest have one.
	g := undirectedGraph(5,
		[3]uint32{0, 1, 0}, [3]uint32{0, 2, 0}, [3]uint32{1, 3, 0}, [3]uint32{2, 3, 0},
		[3]uint32{3, 4, 0})
	events, _ := collectArcs(g, 0, Options{})
	claims := map[uint32]int{}
	preds := map[uint32][]uint32{}
	for _, e := range events {
		if e.claimed {
			claims[e.v]++
		}
		preds[e.v] = append(preds[e.v], e.u)
	}
	for v, c := range claims {
		if c != 1 {
			t.Fatalf("vertex %d claimed %d times", v, c)
		}
	}
	wantPreds := map[uint32][]uint32{1: {0}, 2: {0}, 3: {1, 2}, 4: {3}}
	for v, want := range wantPreds {
		got := append([]uint32(nil), preds[v]...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("vertex %d preds = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d preds = %v, want %v", v, got, want)
			}
		}
	}
}

func TestOnArcPushPullSameArcSet(t *testing.T) {
	// On a symmetric graph the pull direction must observe exactly the
	// arcs the push direction observes (as mirror arcs), including ties.
	g := rmatGraph(t, 10, 6, 30, 17)
	push, pres := collectArcs(g, 3, Options{})
	pull, bres := collectArcs(g, 3, forcePull)
	levelsEqual(t, "pull-levels", bres.Level, pres.Level)
	if len(push) != len(pull) {
		t.Fatalf("push observed %d arcs, pull %d", len(push), len(pull))
	}
	sortArcs(push)
	sortArcs(pull)
	for i := range push {
		// Claim attribution may differ (any DAG predecessor can claim),
		// but the (u, v, t) arc multiset must match exactly.
		if push[i].u != pull[i].u || push[i].v != pull[i].v || push[i].t != pull[i].t {
			t.Fatalf("arc %d differs: push %+v, pull %+v", i, push[i], pull[i])
		}
	}
	// Each discovered vertex is claimed exactly once in both directions.
	for name, evs := range map[string][]arcEvent{"push": push, "pull": pull} {
		claims := map[uint32]int{}
		for _, e := range evs {
			if e.claimed {
				claims[e.v]++
			}
		}
		for v, c := range claims {
			if c != 1 {
				t.Fatalf("%s: vertex %d claimed %d times", name, v, c)
			}
		}
	}
}

func TestOnLevelEndCountsAndStops(t *testing.T) {
	g := lineGraph(30)
	var perLevel []int
	res := Run(g, []uint32{0}, Options{
		Workers: 1,
		Hooks: Hooks{OnLevelEnd: func(level int32, discovered int) bool {
			if int(level) != len(perLevel)+1 {
				t.Fatalf("level %d out of order", level)
			}
			perLevel = append(perLevel, discovered)
			return level < 5 // stop after five expansions
		}},
	}, nil, nil)
	if len(perLevel) != 5 {
		t.Fatalf("hook ran %d times, want 5", len(perLevel))
	}
	for _, d := range perLevel {
		if d != 1 {
			t.Fatalf("line graph level discovered %d, want 1", d)
		}
	}
	if res.Reached != 6 || res.Levels != 5 {
		t.Fatalf("early stop reached/levels = %d/%d, want 6/5", res.Reached, res.Levels)
	}
	if res.Level[5] != 5 || res.Level[6] != NotVisited {
		t.Fatalf("levels past the stop: %v", res.Level[:8])
	}
}

func TestVisitedShadowsLevel(t *testing.T) {
	for _, opt := range []Options{{Workers: 4}, {Workers: 4, Strategy: DirectionOpt}, forcePull} {
		g := rmatGraph(t, 11, 7, 0, 23)
		res := Run(g, []uint32{1}, opt, nil, nil)
		count := 0
		for v := range res.Level {
			set := res.Visited.Get(uint32(v))
			reached := res.Level[v] != NotVisited
			if set != reached {
				t.Fatalf("Visited bit %d = %v but level = %d", v, set, res.Level[v])
			}
			if set {
				count++
			}
		}
		if count != res.Reached {
			t.Fatalf("Visited popcount %d != Reached %d", count, res.Reached)
		}
	}
}

func TestSTConnectedEarlyStop(t *testing.T) {
	// On a long line, an st query to a near vertex must not traverse to
	// the far end: verified through the distance plus the engine
	// contract that levels past the stop stay unvisited.
	g := lineGraph(200)
	ok, d, res := stConnected(t, 1, g, 10, 13)
	if !ok || d != 3 {
		t.Fatalf("got (%v,%d), want (true,3)", ok, d)
	}
	if res.Level[199] != NotVisited {
		t.Fatalf("st query reached the far end: Level[199] = %d", res.Level[199])
	}
	ok, d, _ = stConnected(t, 2, g, 0, 199)
	if !ok || d != 199 {
		t.Fatalf("far query (%v,%d), want (true,199)", ok, d)
	}
	disc := csr.FromEdges(1, 4, []edge.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, true)
	ok, d, _ = stConnected(t, 1, disc, 0, 3)
	if ok || d != -1 {
		t.Fatalf("disconnected query (%v,%d), want (false,-1)", ok, d)
	}
}

func undirectedGraph(n int, es ...[3]uint32) *csr.Graph {
	edges := make([]edge.Edge, len(es))
	for i, e := range es {
		edges[i] = edge.Edge{U: e[0], V: e[1], T: e[2]}
	}
	return csr.FromEdges(1, n, edges, true)
}
