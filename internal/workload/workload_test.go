package workload

import "testing"

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

// TestBenchmarkStreamGolden pins the operand stream benchmark/gen.go
// draws: a connected-only mix, so every Next is two source draws. The
// benchmark's connections each draw from a Split child of one root.
// A change to NewGenerator, Split or Next that moves these pairs moves
// every workload's sources, and must come with new benchmark baselines.
func TestBenchmarkStreamGolden(t *testing.T) {
	type pair struct{ u, v uint32 }
	for _, tc := range []struct {
		vertices    int
		zipfS       float64
		root, child [16]pair
	}{
		{32, 1.2,
			[16]pair{{21, 21}, {17, 17}, {0, 3}, {15, 24}, {26, 11}, {24, 2}, {24, 24}, {31, 21},
				{30, 24}, {25, 17}, {16, 17}, {24, 24}, {30, 24}, {0, 28}, {30, 17}, {26, 14}},
			[16]pair{{24, 24}, {30, 1}, {28, 21}, {21, 24}, {24, 5}, {16, 15}, {21, 31}, {30, 3},
				{21, 21}, {24, 5}, {24, 4}, {3, 24}, {5, 24}, {24, 5}, {7, 24}, {4, 21}}},
		{32, 0,
			[16]pair{{23, 31}, {14, 24}, {16, 9}, {12, 19}, {16, 13}, {20, 26}, {28, 2}, {15, 3},
				{1, 16}, {1, 31}, {18, 12}, {8, 16}, {23, 26}, {27, 22}, {20, 27}, {10, 5}},
			[16]pair{{17, 29}, {13, 15}, {0, 1}, {30, 6}, {16, 11}, {26, 9}, {22, 6}, {28, 24},
				{16, 3}, {12, 25}, {22, 6}, {18, 27}, {26, 9}, {16, 1}, {11, 19}, {15, 23}}},
		{1024, 1.2,
			[16]pair{{444, 961}, {961, 267}, {96, 671}, {734, 692}, {734, 508}, {462, 462}, {564, 961}, {540, 1001},
				{961, 98}, {403, 169}, {633, 961}, {800, 961}, {600, 713}, {234, 961}, {462, 564}, {462, 734}},
			[16]pair{{417, 734}, {403, 734}, {961, 603}, {179, 619}, {877, 961}, {901, 671}, {786, 462}, {639, 961},
				{443, 403}, {102, 229}, {906, 705}, {671, 671}, {867, 846}, {466, 329}, {867, 734}, {272, 1018}}},
		{1024, 0,
			[16]pair{{763, 994}, {454, 781}, {535, 292}, {413, 619}, {542, 446}, {660, 834}, {905, 67}, {507, 126},
				{49, 527}, {44, 1021}, {600, 406}, {259, 542}, {766, 837}, {882, 725}, {671, 889}, {332, 162}},
			[16]pair{{549, 934}, {430, 497}, {1, 36}, {987, 221}, {541, 355}, {839, 319}, {724, 216}, {925, 797},
				{540, 120}, {389, 825}, {726, 214}, {590, 874}, {848, 294}, {517, 44}, {361, 630}, {509, 755}}},
	} {
		cfg := Config{Vertices: tc.vertices, ZipfS: tc.zipfS, Mix: Mix{Connected: 1}, Seed: 1}
		for _, s := range []struct {
			name string
			gen  *Generator
			want [16]pair
		}{
			{"root", NewGenerator(cfg), tc.root},
			{"child", NewGenerator(cfg).Split(), tc.child},
		} {
			for i, w := range s.want {
				op := s.gen.Next()
				if op.Kind != "connected" || op.U != w.u || op.V != w.v {
					t.Fatalf("vertices=%d zipf=%g %s op %d: %+v, want connected (%d, %d)",
						tc.vertices, tc.zipfS, s.name, i, op, w.u, w.v)
				}
			}
		}
	}
}
