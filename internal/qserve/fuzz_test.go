package qserve

import (
	"math"
	"net/url"
	"testing"
)

// FuzzSpecDecode feeds arbitrary query strings to every registered
// kind's Decode, then Validate against a small snapshot. Each must
// return an error or Args the kind's kernels can run on — vertex
// operands in range, k within maxKHop, a finite PageRank tolerance no
// smaller than minPageRankTol — and the quick-answer and cache-key
// projections must accept them. Never a panic.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []string{
		"src=3", "src=3&delta=-5", "u=1&v=2&live=1", "u=1&v=2&live=yes",
		"src=1&k=4294967295", "tol=1e-300", "tol=NaN", "tol=-1",
		"src=18446744073709551616", "src=%zz", "src=1&src=2", "",
	} {
		f.Add(s)
	}
	const n = 16
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, sp := range Specs() {
			a, err := sp.Decode(q)
			if err != nil {
				continue
			}
			if err := sp.Validate(a, n); err != nil {
				continue
			}
			if (sp.vertexA && a.A >= n) || (sp.vertexB && a.B >= n) {
				t.Fatalf("%s: %q validated out-of-range args %+v", sp.Name(), raw, a)
			}
			switch sp {
			case SpecKHop:
				if a.B > maxKHop {
					t.Fatalf("khop: %q decoded k = %d", raw, a.B)
				}
			case SpecPageRank:
				if tol := PageRankTol(a); math.IsNaN(tol) || math.IsInf(tol, 0) || tol < minPageRankTol {
					t.Fatalf("pagerank: %q decoded tol = %v", raw, tol)
				}
			}
			sp.Quick(a)
			sp.CacheKey(a)
		}
	})
}
