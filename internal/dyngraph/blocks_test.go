package dyngraph

import (
	"slices"
	"testing"

	"snapdyn/internal/edge"
	"snapdyn/internal/xrand"
)

// smallBlocks shrinks the heavy-vertex block capacity for the rest of
// the test, so a handful of arcs splits, merges and straddles blocks.
func smallBlocks(t *testing.T, c int) {
	t.Helper()
	old := blockCap
	blockCap = c
	t.Cleanup(func() { blockCap = old })
}

// blockCoverage counts the block-list events a differential run went
// through, so the test can insist it exercised them.
type blockCoverage struct {
	splits, shrinks, longRuns, emptied, promotions, demotions int
}

// observe records what one update on u did to its heavy form.
func (c *blockCoverage) observe(h *Hybrid, u edge.ID, wasHeavy bool, blocksBefore int) {
	l := h.heavy[u]
	switch {
	case l == nil && wasHeavy:
		c.demotions++
	case l != nil && !wasHeavy:
		c.promotions++
	case l != nil && len(l.blocks) > blocksBefore:
		c.splits++
	case l != nil && len(l.blocks) < blocksBefore:
		c.shrinks++
	}
}

// blocksOf returns u's block count, 0 in array mode.
func blocksOf(h *Hybrid, u edge.ID) int {
	if l := h.heavy[u]; l != nil {
		return len(l.blocks)
	}
	return 0
}

// checkVertex compares u across the three stores: degree, Has and
// multiset against the oracle for every vertex; for a heavy vertex the
// exact enumeration (neighbors, multiplicities, labels) and ReadKeys
// (cnt, ts) over present and absent keys against the treap store.
func checkVertex(t *testing.T, step int, h *Hybrid, tr *TreapStore, o *Oracle, u edge.ID, keys []edge.ID, cov *blockCoverage) {
	t.Helper()
	if h.Degree(u) != o.Degree(u) {
		t.Fatalf("step %d: degree(%d) = %d, oracle %d", step, u, h.Degree(u), o.Degree(u))
	}
	want := o.NeighborCounts(u)
	got := map[edge.ID]int{}
	h.Neighbors(u, func(v edge.ID, _ uint32) bool {
		got[v]++
		return true
	})
	for _, v := range keys {
		if got[v] != want[v] || h.Has(u, v) != (want[v] > 0) {
			t.Fatalf("step %d: vertex %d neighbor %d: count %d, Has %v; oracle count %d", step, u, v, got[v], h.Has(u, v), want[v])
		}
	}
	hcnt, hts := make([]uint32, len(keys)), make([]uint32, len(keys))
	tcnt, tts := make([]uint32, len(keys)), make([]uint32, len(keys))
	for i := range keys {
		hts[i], tts[i] = 0xdead, 0xdead
	}
	deg, keyed := h.ReadKeys(u, keys, hcnt, hts)
	if deg != o.Degree(u) || keyed != h.IsHeavy(u) {
		t.Fatalf("step %d: ReadKeys(%d) = (%d, %v), want (%d, %v)", step, u, deg, keyed, o.Degree(u), h.IsHeavy(u))
	}
	if !keyed {
		return
	}
	tr.ReadKeys(u, keys, tcnt, tts)
	if !slices.Equal(hcnt, tcnt) || !slices.Equal(hts, tts) {
		t.Fatalf("step %d: vertex %d ReadKeys cnt %v ts %v, treap store cnt %v ts %v", step, u, hcnt, hts, tcnt, tts)
	}
	for _, c := range hcnt {
		if int(c) > h.bcap {
			cov.longRuns++
		}
	}
	if g, w := CollectNeighbors(h, u), CollectNeighbors(tr, u); !slices.Equal(g, w) {
		t.Fatalf("step %d: heavy vertex %d enumerates %v, treap store %v", step, u, g, w)
	}
}

// TestHybridBlocksDifferential drives Hybrid at a block capacity of 4
// against the oracle and the treap store with seeded churn whose
// insert share falls and rises, so vertices cross the threshold both
// ways, hubs split and merge blocks, neighbors reach multiplicities
// longer than a block and are deleted to zero and inserted again. Deletes
// are wildcard, so a heavy vertex's labels are the last-inserted ones
// whatever its history, and the treap store's walk is its exact
// reference. Every update's vertex is checked after it applies.
func TestHybridBlocksDifferential(t *testing.T) {
	smallBlocks(t, 4)
	const n, nbrs, thresh = 24, 14, 6
	h := NewHybrid(n, 8*n, thresh, 1)
	tr := NewTreapStore(n, 1)
	o := NewOracle(n)
	keys := make([]edge.ID, 0, nbrs+2)
	for v := edge.ID(0); v < nbrs+2; v++ { // two never-inserted keys
		keys = append(keys, v)
	}
	odd := make([]edge.ID, 0, len(keys)/2)
	for v := edge.ID(1); v < nbrs+2; v += 2 {
		odd = append(odd, v)
	}
	var cov blockCoverage
	r := xrand.New(37)
	step := 0
	for _, insertShare := range []float64{0.8, 0.35, 0.7, 0.2, 0.6} {
		for range 3000 {
			u := edge.ID(r.Intn(n))
			v := edge.ID(r.Intn(nbrs))
			wasHeavy, before := h.IsHeavy(u), blocksOf(h, u)
			if r.Float64() < insertShare {
				lbl := uint32(step)
				h.Insert(u, v, lbl)
				tr.Insert(u, v, lbl)
				o.Insert(u, v, lbl)
			} else {
				hok, tok, ook := h.Delete(u, v), tr.Delete(u, v), o.Delete(u, v)
				if hok != ook || tok != ook {
					t.Fatalf("step %d: Delete(%d,%d) = %v, treap %v, oracle %v", step, u, v, hok, tok, ook)
				}
				if ook && !o.Has(u, v) {
					cov.emptied++
				}
			}
			cov.observe(h, u, wasHeavy, before)
			checkVertex(t, step, h, tr, o, u, keys, &cov)
			checkVertex(t, step, h, tr, o, u, odd, &cov)
			step++
		}
	}
	stateMatches(t, h, o)
	t.Logf("coverage %+v", cov)
	if cov.splits == 0 || cov.shrinks == 0 || cov.longRuns == 0 || cov.emptied == 0 || cov.promotions == 0 || cov.demotions == 0 {
		t.Fatalf("churn missed a case: %+v", cov)
	}
}

// TestHybridBlocksReplicas: at a block capacity of 4, stores fed the
// same batches enumerate identically, labels included, whether applied
// at workers 1 or 2 or one update at a time. The batches are a load
// into the empty store (packed blocks), mixed churn with exact-label,
// wildcard and absent deletes, the load again on top (array vertices
// migrating mid-group) and more churn.
func TestHybridBlocksReplicas(t *testing.T) {
	smallBlocks(t, 4)
	const n, thresh = 256, 6
	r := xrand.New(41)
	load := loadUpdates(r, n, thresh)
	w1 := NewHybrid(n, 4*len(load), thresh, 1)
	w2 := NewHybrid(n, 4*len(load), thresh, 2)
	single := NewHybrid(n, 4*len(load), thresh, 3)
	for round, stage := range []string{"load", "churn", "reload", "churn again"} {
		ups := load
		if round%2 == 1 {
			ups = churnUpdates(r, n, thresh, load)
		}
		if len(ups) <= applyChunk {
			t.Fatalf("%s: %d updates do not take the grouped path", stage, len(ups))
		}
		w1.ApplyBatch(1, ups)
		w2.ApplyBatch(2, ups)
		applyOneByOne(single, ups)
		sameHybrids(t, stage, w1, single)
		sameHybrids(t, stage, w2, single)
		if w1.HeavyVertexCount() == 0 {
			t.Fatalf("%s: no vertex in heavy mode", stage)
		}
	}
}
