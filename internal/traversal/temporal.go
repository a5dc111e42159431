package traversal

import (
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
)

// TemporalReachability computes the set of vertices reachable from src
// by time-respecting paths: sequences of edges with strictly increasing
// time labels (the temporal-path semantics of Kempe et al. used by the
// paper's temporal betweenness). This differs from a window-filtered
// BFS: an edge is usable only if its label exceeds the label of the edge
// on which its tail was reached.
//
// It is a serial label-correcting worklist over the adjacency: each
// vertex keeps the minimum arrival label over the time-respecting paths
// found so far, and re-enters the worklist whenever a path with a
// smaller arrival label appears, since that admits more continuations.
// Termination: arrival labels strictly decrease per vertex on
// re-insertion, and labels are bounded below. The fixpoint is unique,
// so the result does not depend on the visit order.
//
// Returns the arrival label per vertex (0 for src, ^uint32(0) for
// unreachable) and the reached count.
func TemporalReachability(g *csr.Graph, src edge.ID) (arrive []uint32, reached int) {
	const unreached = ^uint32(0)
	arrive = make([]uint32, g.N)
	for i := range arrive {
		arrive[i] = unreached
	}
	arrive[src] = 0
	queued := make([]bool, g.N)
	queue := []uint32{src}
	queued[src] = true
	reached = 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		queued[u] = false
		adj, ts := g.Neighbors(u)
		for i, v := range adj {
			t := ts[i]
			// First hop from the source is unconstrained; afterwards
			// labels must strictly increase.
			if (u != src && t <= arrive[u]) || t >= arrive[v] {
				continue
			}
			if arrive[v] == unreached {
				reached++
			}
			arrive[v] = t
			if !queued[v] {
				queued[v] = true
				queue = append(queue, v)
			}
		}
	}
	return arrive, reached
}

// TemporallyReachable reports whether a time-respecting path exists from
// u to v.
func TemporallyReachable(g *csr.Graph, u, v edge.ID) bool {
	if u == v {
		return true
	}
	arrive, _ := TemporalReachability(g, u)
	return arrive[v] != ^uint32(0)
}
