package sssp

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"snapdyn/internal/csr"
	"snapdyn/internal/frontier"
	"snapdyn/internal/rmat"
	"snapdyn/internal/xrand"
)

// batchRecorder is a Relaxer that keeps a copy of every batch Bands
// hands it and relaxes it with a plain compare-and-store loop.
type batchRecorder struct {
	g       *csr.Graph
	dist    []int64
	batches [][]uint32
}

func (r *batchRecorder) Phase(batch []uint32, out *frontier.Buckets) {
	r.batches = append(r.batches, slices.Clone(batch))
	g, dist, local := r.g, r.dist, out.Take(0)
	for _, u := range batch {
		for p := g.Offsets[u]; p < g.Offsets[u+1]; p++ {
			if v, nd := g.Adj[p], dist[u]+int64(g.TS[p]); nd < dist[v] {
				dist[v] = nd
				local = append(local, v)
			}
		}
	}
	out.Put(0, local)
}

// runRecorded runs Bands from src over g at bucket width delta through
// a batchRecorder, checks the distances against Dijkstra and every
// batch for duplicates and, when dense, for ascending order, and
// returns the number of dense batches of two or more members and of
// sparse ones that came out of id order, as only the member-list path
// leaves them.
func runRecorded(t *testing.T, g *csr.Graph, src uint32, delta int64) (dense, unsorted int) {
	t.Helper()
	var b Bands
	_, maxW := sampleDelta(nil, g.N, []*csr.Graph{g})
	r := &batchRecorder{g: g, dist: b.Reset(1, g.N, maxW, delta)}
	b.Run(src, r)
	ctx := fmt.Sprintf("n=%d src=%d delta=%d", g.N, src, delta)
	assertMatchesDijkstra(t, g, src, r.dist, ctx)
	for i, batch := range r.batches {
		seen := make(map[uint32]bool, len(batch))
		for _, v := range batch {
			if seen[v] {
				t.Fatalf("%s: batch %d holds %d twice: %v", ctx, i, v, batch)
			}
			seen[v] = true
		}
		if len(batch) < 2 {
			continue
		}
		words := int(slices.Max(batch)>>6) - int(slices.Min(batch)>>6) + 1
		if 8*len(batch) < words {
			if !slices.IsSorted(batch) {
				unsorted++
			}
			continue
		}
		dense++
		if !slices.IsSorted(batch) {
			t.Fatalf("%s: dense batch %d (%d members over %d words) not in id order: %v", ctx, i, len(batch), words, batch)
		}
	}
	return dense, unsorted
}

// TestBandsDenseBatchesInIDOrder: on the served graph shape every dense
// batch reaches the relaxer in ascending id order without duplicates,
// and the distances are Dijkstra's.
func TestBandsDenseBatchesInIDOrder(t *testing.T) {
	p := rmat.PaperParams(12, 8<<12, 100, 5)
	es, err := rmat.Generate(0, p)
	if err != nil {
		t.Fatal(err)
	}
	g := csr.FromEdges(0, p.NumVertices(), es, true)
	delta := HeuristicDelta(nil, g.N, g)
	dense := 0
	for _, src := range []uint32{0, 1, 999, 4000} {
		d, _ := runRecorded(t, g, src, delta)
		dense += d
	}
	if dense == 0 {
		t.Fatal("no dense batch of two or more members: the id-order path went untested")
	}
}

// TestBandsSparseBatchFallback: an explicit delta far below the weights
// makes bands of a few vertices scattered over the id range. They take
// the member-list path, which keeps queue order, and the distances stay
// Dijkstra's.
func TestBandsSparseBatchFallback(t *testing.T) {
	p := rmat.PaperParams(12, 4<<12, 100_000, 9)
	es, err := rmat.Generate(0, p)
	if err != nil {
		t.Fatal(err)
	}
	g := csr.FromEdges(0, p.NumVertices(), es, true)
	unsorted := 0
	for _, src := range []uint32{0, 77} {
		_, u := runRecorded(t, g, src, 100)
		unsorted += u
	}
	if unsorted == 0 {
		t.Fatal("every sparse batch came in id order: the member-list path went untested")
	}
}

// TestRelaxOwnedMatchesRelaxSpan: over random spans — zero weights,
// Inf targets, repeated targets, a non-empty output buffer — the
// serial relaxer leaves the same distances and the same multiset of
// winners as the CAS relaxer, under the label and under custom
// weights, and flags the same bad weights.
func TestRelaxOwnedMatchesRelaxSpan(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + int(r.Uint32n(12))
		m := int(r.Uint32n(40))
		g := &csr.Graph{N: n, Adj: make([]uint32, m), TS: make([]uint32, m)}
		for i := range g.Adj {
			g.Adj[i], g.TS[i] = r.Uint32n(uint32(n)), r.Uint32n(4) // labels 0..3
		}
		dist := make([]int64, n)
		for v := range dist {
			if dist[v] = int64(r.Uint32n(10)); r.Uint32n(3) == 0 {
				dist[v] = Inf
			}
		}
		lo := int64(r.Uint32n(uint32(m + 1)))
		hi := lo + int64(r.Uint32n(uint32(m-int(lo)+1)))
		du := int64(r.Uint32n(8))
		prefix := []uint32{uint32(r.Uint32n(uint32(n)))}
		for _, wf := range []WeightFunc{nil, func(ts uint32) int64 { return 3 * int64(ts) }, func(ts uint32) int64 { return int64(ts) - 2 }} {
			dCAS, dOwned := slices.Clone(dist), slices.Clone(dist)
			wCAS, badCAS := RelaxSpan(g.Adj[lo:hi], g.TS[lo:hi], wf, du, dCAS, slices.Clone(prefix))
			wOwned, badOwned := RelaxOwned(g.Adj[lo:hi], g.TS[lo:hi], wf, du, dOwned, slices.Clone(prefix))
			slices.Sort(wCAS)
			slices.Sort(wOwned)
			// A run that met a bad weight panics after the phase, so only
			// the flag has to agree then.
			if badCAS != badOwned || (!badCAS && (!slices.Equal(wCAS, wOwned) || !slices.Equal(dCAS, dOwned))) {
				t.Logf("seed %d: span [%d,%d) du=%d: CAS %v %v bad=%v, owned %v %v bad=%v",
					seed, lo, hi, du, dCAS, wCAS, badCAS, dOwned, wOwned, badOwned)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRelaxOwnedFlagsBadWeight: a negative custom weight on a relaxed
// arc is reported, not panicked on, so the phase can panic on its
// caller's goroutine.
func TestRelaxOwnedFlagsBadWeight(t *testing.T) {
	g := weightedGraph(3, false, [3]uint32{0, 1, 4}, [3]uint32{0, 2, 5})
	dist := []int64{0, Inf, Inf}
	if _, bad := RelaxOwned(g.Adj[0:2], g.TS[0:2], func(ts uint32) int64 { return int64(ts) - 5 }, 0, dist, nil); !bad {
		t.Fatal("weight -1 not flagged")
	}
	if _, bad := RelaxOwned(g.Adj[0:2], g.TS[0:2], nil, 0, []int64{0, Inf, Inf}, nil); bad {
		t.Fatal("label weights flagged bad")
	}
}
