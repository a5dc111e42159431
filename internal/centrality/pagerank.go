package centrality

import (
	"math"

	"snapdyn/internal/compress"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
)

// maxPageRankRounds hard-caps the power iteration (the error contracts
// geometrically with damping 0.85, so real solves finish orders of
// magnitude below this).
const maxPageRankRounds = 1000

// Arcs names where PageRank reads each vertex's out-arcs. Exactly one
// of Views and C is set.
type Arcs struct {
	// Views holds vertex u's arcs as its span in Views[u % len(Views)]:
	// a shard fleet's per-shard views, or one CSR as a one-view set.
	Views []*csr.Graph
	// Perm maps an original id to its id in a reordered CSR (nil: the
	// identity). Ranks and adjacency stay in layout space.
	Perm []uint32
	// C is a compressed snapshot, decoded arc by arc every round.
	C *compress.Graph
}

// PageRank is the PageRank kernel's pooled state: after a Run, Rank
// holds the score vector in layout space. A zero PageRank is ready to
// use, and after the first Run at a vertex count, later runs at that
// count allocate nothing.
type PageRank struct {
	Rank []float64
	next []float64
	cur  compress.Cursor
}

// Run solves r = (1-d)·1 + d·AᵀD⁻¹r by serial power iteration, parallel
// arcs counted and dangling mass dropped, so every rank is at least
// 1-d. It starts from r = 1-d; each round pushes d·r[u]/deg(u) along
// every out-arc of every vertex u, visiting sources in original-id
// order, and it stops once no rank moved by tol or more in a round (or
// after 1000 rounds). It returns the rounds taken and the largest and
// summed rank, both taken in original-id order.
//
// Every next[v] receives its additions in source order, and that order
// is original-id order on every layout and every shard count, so the
// answer is bit-identical across them; the order of arcs inside a
// vertex does not change the sequence.
func (s *PageRank) Run(a Arcs, d, tol float64) (rounds int, maxRank, sumRank float64) {
	n := a.n()
	if cap(s.Rank) < n {
		s.Rank = make([]float64, n)
		s.next = make([]float64, n)
	}
	s.Rank, s.next = s.Rank[:n], s.next[:n]
	teleport := 1 - d
	for i := range s.Rank {
		s.Rank[i] = teleport
	}
	views, perm, c := a.Views, a.Perm, a.C
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
			if c != nil {
				c.Begin(&s.cur, edge.ID(u))
				if deg := s.cur.Len(); deg > 0 {
					push := d * rank[u] / float64(deg)
					for v, _, ok := s.cur.Next(); ok; v, _, ok = s.cur.Next() {
						next[v] += push
					}
				}
				continue
			}
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

func (a Arcs) n() int {
	if a.C != nil {
		return a.C.N
	}
	return a.Views[0].N
}
