package centrality

import (
	"math"

	"snapdyn/internal/compress"
)

// maxPageRankRounds hard-caps the power iteration (the error contracts
// geometrically with damping 0.85, so real solves finish orders of
// magnitude below this).
const maxPageRankRounds = 1000

// PageRank is the PageRank kernel's pooled state: after a Run, Rank
// holds the score vector in layout space. A zero PageRank is ready to
// use, and after the first Run at a vertex count, later runs at that
// count allocate nothing.
type PageRank struct {
	Rank []float64
	next []float64
}

// Run solves r = (1-d)·1 + d·AᵀD⁻¹r over the arcs a by serial power
// iteration, parallel
// arcs counted and dangling mass dropped, so every rank is at least
// 1-d. It starts from r = 1-d; each round pushes d·r[u]/deg(u) along
// every out-arc of every vertex u, visiting sources in original-id
// order, and it stops once no rank moved by tol or more in a round (or
// after 1000 rounds). perm maps an original id to its id in a
// reordered CSR (nil: the identity); ranks and adjacency stay in layout
// space. It returns the rounds taken and the largest and summed rank,
// both taken in original-id order.
//
// Every next[v] receives its additions in source order, and that order
// is original-id order on every layout and every shard count, so the
// answer is bit-identical across them; the order of arcs inside a
// vertex does not change the sequence.
func (s *PageRank) Run(a compress.Arcs, perm []uint32, d, tol float64) (rounds int, maxRank, sumRank float64) {
	n := a.N()
	if cap(s.Rank) < n {
		s.Rank = make([]float64, n)
		s.next = make([]float64, n)
	}
	s.Rank, s.next = s.Rank[:n], s.next[:n]
	teleport := 1 - d
	for i := range s.Rank {
		s.Rank[i] = teleport
	}
	views := a.Views
	for rounds < maxPageRankRounds {
		rounds++
		rank, next := s.Rank, s.next
		for i := range next {
			next[i] = teleport
		}
		sh := 0
		for o := range rank {
			u := o
			if perm != nil {
				u = int(perm[o])
			}
			if a.C != nil {
				pushRuns(a.C, uint32(u), d*rank[u], next)
				continue
			}
			// u's view is views[o % P]: a reordered CSR is a one-view
			// set, and a fleet's views are unpermuted.
			g := views[sh]
			if sh++; sh == len(views) {
				sh = 0
			}
			lo, hi := g.Offsets[u], g.Offsets[u+1]
			if lo == hi {
				continue
			}
			push := d * rank[u] / float64(hi-lo)
			for _, v := range g.Adj[lo:hi] {
				next[v] += push
			}
		}
		var delta float64
		for i, r := range next {
			delta = max(delta, math.Abs(r-rank[i]))
		}
		s.Rank, s.next = next, rank
		if delta < tol {
			break
		}
	}
	for o := range s.Rank {
		r := s.Rank[o]
		if perm != nil {
			r = s.Rank[perm[o]]
		}
		sumRank += r
		maxRank = max(maxRank, r)
	}
	return rounds, maxRank, sumRank
}

// pushRuns is Run's push of share from u over u's compressed block,
// decoded a run at a time. The push stays out of line because a decoder
// call inside Run's loop makes the compiler spill the loop's registers
// on the view-set path too, a tenth of a CSR solve.
func pushRuns(c *compress.Graph, u uint32, share float64, next []float64) {
	var run compress.Run
	adj, _ := c.Span(&run, u, false)
	if run.Degree() == 0 {
		return
	}
	push := share / float64(run.Degree())
	for {
		for _, v := range adj {
			next[v] += push
		}
		if run.Left() == 0 {
			return
		}
		adj, _ = run.Next(false)
	}
}
