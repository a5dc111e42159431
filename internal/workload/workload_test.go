package workload

import (
	"testing"
	"time"
)

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{Vertices: 1 << 10, ZipfS: 1.2, Seed: 42}
	a, b := NewGenerator(cfg), NewGenerator(cfg)
	for i := 0; i < 1000; i++ {
		if oa, ob := a.Next(), b.Next(); oa != ob {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
	// A different seed must produce a different stream.
	c := NewGenerator(Config{Vertices: 1 << 10, ZipfS: 1.2, Seed: 43})
	same := 0
	a = NewGenerator(cfg)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical ops", same)
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher s concentrates traffic: the most popular source's share
	// must grow with the exponent, and s=0 must be roughly uniform.
	const n, draws = 1 << 10, 20000
	top := func(s float64) float64 {
		g := NewGenerator(Config{Vertices: n, ZipfS: s, Mix: Mix{BFS: 1}, Seed: 7})
		counts := make(map[uint32]int)
		for i := 0; i < draws; i++ {
			counts[g.Next().U]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / draws
	}
	t0, t08, t12 := top(0), top(0.8), top(1.2)
	if !(t0 < t08 && t08 < t12) {
		t.Fatalf("top-source share not increasing in s: %.4f (0), %.4f (0.8), %.4f (1.2)", t0, t08, t12)
	}
	if t0 > 0.01 {
		t.Fatalf("uniform top share %.4f, want < 1%%", t0)
	}
	if t12 < 0.05 {
		t.Fatalf("s=1.2 top share %.4f, want >= 5%%", t12)
	}
}

func TestMixProportions(t *testing.T) {
	g := NewGenerator(Config{Vertices: 64, Mix: Mix{BFS: 1, SSSP: 1}, Seed: 1})
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[g.Next().Kind]++
	}
	if counts["connected"] != 0 || counts["components"] != 0 {
		t.Fatalf("zero-weight kinds drawn: %+v", counts)
	}
	if counts["bfs"] < 1600 || counts["sssp"] < 1600 {
		t.Fatalf("even two-way mix came out %+v", counts)
	}
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	mk := func() (*Generator, *Generator) {
		p := NewGenerator(Config{Vertices: 256, ZipfS: 0.8, Seed: 5})
		return p.Split(), p.Split()
	}
	a1, a2 := mk()
	b1, b2 := mk()
	for i := 0; i < 200; i++ {
		if a1.Next() != b1.Next() || a2.Next() != b2.Next() {
			t.Fatal("split children not reproducible across runs")
		}
	}
}

func TestArrivalsMeanRate(t *testing.T) {
	// Plain Poisson at 1000/s: the mean gap over many draws must be
	// close to 1ms.
	a := NewArrivals(1000, 0, 0, 0, 11)
	var sum time.Duration
	const draws = 20000
	for i := 0; i < draws; i++ {
		sum += a.Next()
	}
	mean := sum / draws
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Fatalf("mean gap %v, want ~1ms", mean)
	}
}

func TestArrivalsBursty(t *testing.T) {
	// With bursts on, gaps drawn in the on state are ~8x shorter: the
	// gap distribution must be visibly bimodal — compare the mean gap
	// against plain Poisson at the same base rate.
	plain := NewArrivals(1000, 0, 0, 0, 13)
	burst := NewArrivals(1000, 8, 20*time.Millisecond, 20*time.Millisecond, 13)
	var ps, bs time.Duration
	const draws = 20000
	for i := 0; i < draws; i++ {
		ps += plain.Next()
		bs += burst.Next()
	}
	// Equal on/off holding and 8x burst rate: most arrivals land in
	// bursts, so the mean gap shrinks well below the calm mean.
	if bs >= ps*3/4 {
		t.Fatalf("bursty mean gap %v not below 3/4 of plain %v", bs/draws, ps/draws)
	}
	// Determinism: same seed, same gaps.
	b2 := NewArrivals(1000, 8, 20*time.Millisecond, 20*time.Millisecond, 13)
	b1 := NewArrivals(1000, 8, 20*time.Millisecond, 20*time.Millisecond, 13)
	for i := 0; i < 100; i++ {
		if b1.Next() != b2.Next() {
			t.Fatal("arrivals not deterministic for a fixed seed")
		}
	}
}
