package sssp

import (
	"math"

	"snapdyn/internal/csr"
)

// heuristicSample bounds the number of arcs HeuristicDelta inspects per
// graph.
const heuristicSample = 1 << 16

// HeuristicDelta returns the default bucket width for the arcs of gs —
// one snapshot, or the shard views of a fleet — over n vertices:
//
//	max(1, meanW / (2·sqrt(max(1, m/n))))
//
// The mean weight alone (the textbook starting point) is the slowest
// point of the sweep: bands that wide re-relax most arcs several times.
// The Meyer–Sanders Θ(1/d) rule fixes that but over-shrinks on dense
// graphs, where a run then pays the band loop's per-band bookkeeping
// (ring scan, dedup, drain) for thin bands whose batches are too sparse
// to walk in id order; damping the degree term with a square root sits
// on the flat part of the measured curve for both engines (README
// "SSSP: what a refresh costs, and choosing delta" has the sweep).
//
// Each graph's weights are sampled from its time labels through wf
// (nil: the label is the weight) at a fixed stride of max(1, m/2^16)
// starting at arc 0 and combined arc-weighted, so repeated runs over
// one snapshot (or one view set) pick the same delta. All index
// arithmetic is additive, so it cannot overflow regardless of the arc
// count.
func HeuristicDelta(wf WeightFunc, n int, gs ...*csr.Graph) int64 {
	d, _ := sampleDelta(wf, n, gs)
	return d
}

// sampleDelta is HeuristicDelta that also returns the largest weight
// its sample saw, clamped to [0, MaxUint32]: the bound the bucket ring
// is sized from. A rarer heavier arc lands past the ring's window and
// takes the overflow list.
func sampleDelta(wf WeightFunc, n int, gs []*csr.Graph) (int64, uint32) {
	var wsum float64
	var m, maxW int64
	for _, g := range gs {
		ts := g.TS
		if len(ts) == 0 {
			continue
		}
		stride := len(ts) / heuristicSample
		if stride < 1 {
			stride = 1
		}
		var sum, count int64
		for i := 0; i < len(ts); i += stride {
			w := int64(ts[i])
			if wf != nil {
				w = wf(ts[i])
			}
			sum += w
			maxW = max(maxW, w)
			count++
		}
		wsum += float64(sum) / float64(count) * float64(len(ts))
		m += int64(len(ts))
	}
	maxW = min(maxW, math.MaxUint32)
	if m == 0 {
		return 1, uint32(maxW)
	}
	deg := math.Max(1, float64(m)/float64(n))
	d := wsum / float64(m) / (2 * math.Sqrt(deg))
	if d < 1 { // small weights, or the garbage a bad wf makes of the mean
		return 1, uint32(maxW)
	}
	return int64(d), uint32(maxW)
}

// DeltaCache remembers the bucket width and ring bound chosen for one
// snapshot, or one fleet view set, keyed by the graph pointers and the
// requested delta. A newly published snapshot costs one fixed-size
// sample; nothing per arc is kept. The weight function is not part of
// the key: a cached width chosen under other weights leaves distances
// exact (any delta >= 1 does) and only moves the band count.
type DeltaCache struct {
	gs    []*csr.Graph // the graphs the entry was chosen for; empty = none
	req   int64        // the requested delta (<= 0: heuristic)
	delta int64
	maxW  uint32
}

// Choose returns the bucket width for a run over gs (req, or
// HeuristicDelta when req <= 0) and the largest sampled weight,
// sampling only when gs or req differ from the cached entry.
func (c *DeltaCache) Choose(wf WeightFunc, req int64, n int, gs ...*csr.Graph) (int64, uint32) {
	hit := len(c.gs) == len(gs) && c.req == req
	for i := 0; hit && i < len(gs); i++ {
		hit = c.gs[i] == gs[i]
	}
	if !hit {
		c.delta, c.maxW = sampleDelta(wf, n, gs)
		if req > 0 {
			c.delta = req
		}
		c.gs, c.req = append(c.gs[:0], gs...), req
	}
	return c.delta, c.maxW
}

// Delta returns the width of the cached entry (0 before any run).
func (c *DeltaCache) Delta() int64 { return c.delta }

// Invalidate drops the cached entry, so the next Choose samples again.
func (c *DeltaCache) Invalidate() { c.gs = c.gs[:0] }
