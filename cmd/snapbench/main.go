// Command snapbench runs the paper's evaluation figures at configurable
// scale and prints the measured series in paper-style tables.
//
// Usage:
//
//	snapbench -fig all -scale 18
//	snapbench -fig 5 -scale 20 -delfrac 0.075
//	snapbench -fig 8 -queries 1000000 -workers 1,2,4,8
//	snapbench -fig 10 -scale 20 -bfs dirop
//	snapbench -fig kernel -kernel bc -bfs dirop -scale 14
//	snapbench -fig kernel -kernel sssp -scale 16 -deltas 0,25,100
//
// Figures 1-6 are the dynamic-representation experiments, 7-8 the
// link-cut tree, 9 the induced subgraph kernel, 10 temporal BFS, 11
// approximate temporal betweenness centrality. The extra figure
// "kernel" sweeps one BFS-shaped kernel (-kernel=bfs|bc|closeness) on
// the unified visitor engine, or the weighted delta-stepping kernel
// (-kernel=sssp, time labels as arc weights, one series per -deltas
// bucket width with 0 meaning the default heuristic width, plus a
// sequential Dijkstra baseline series); the -bfs engine choice applies
// to every BFS-shaped kernel (figures 7, 10, 11, and kernel), not just
// plain BFS. The serving system is measured by benchmark/ (bash
// benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"snapdyn/internal/bench"
	"snapdyn/internal/timing"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "comma-separated figures to run: 1..11, kernel, or 'all'")
		scale      = flag.Int("scale", 16, "R-MAT scale (n = 2^scale vertices)")
		edgeFactor = flag.Int("edgefactor", 10, "edges per vertex (m = edgefactor*n)")
		workers    = flag.String("workers", "", "comma-separated worker sweep (default: 1,2,4,..,GOMAXPROCS)")
		seed       = flag.Uint64("seed", 20090525, "random seed")
		timeMax    = flag.Uint("tmax", 100, "max time label")
		queries    = flag.Int("queries", 1_000_000, "connectivity queries for figure 8")
		sources    = flag.Int("sources", 256, "sampled sources for figure 11")
		delFrac    = flag.Float64("delfrac", 0.075, "fraction of m to delete in figure 5")
		bfsEngine  = flag.String("bfs", "topdown", "traversal engine for all BFS-shaped kernels (figures 7, 10, 11, kernel): topdown or dirop (direction-optimizing)")
		kernel     = flag.String("kernel", "bfs", "kernel for the 'kernel' figure: bfs, bc, closeness, or sssp")
		deltas     = flag.String("deltas", "", "comma-separated delta-stepping bucket widths to sweep for -kernel=sssp (0 = the default heuristic width; default just the heuristic)")
		scales     = flag.String("scales", "", "comma-separated scales for figure 1 (default scale-6..scale)")
	)
	flag.Parse()

	if *bfsEngine != "topdown" && *bfsEngine != "dirop" {
		fatalf("bad -bfs %q (want topdown or dirop)", *bfsEngine)
	}
	switch *kernel {
	case "bfs", "bc", "closeness", "sssp":
	default:
		fatalf("bad -kernel %q (want bfs, bc, closeness, or sssp)", *kernel)
	}
	cfg := bench.Config{
		Scale:      *scale,
		EdgeFactor: *edgeFactor,
		TimeMax:    uint32(*timeMax),
		Seed:       *seed,
		BFSEngine:  *bfsEngine,
	}
	if *workers != "" {
		ws, err := parseInts(*workers)
		if err != nil {
			fatalf("bad -workers: %v", err)
		}
		cfg.Workers = ws
	}
	if *deltas != "" {
		ds, err := parseInt64s(*deltas)
		if err != nil {
			fatalf("bad -deltas: %v", err)
		}
		cfg.Deltas = ds
	}

	fig1Scales := []int{}
	if *scales != "" {
		ss, err := parseInts(*scales)
		if err != nil {
			fatalf("bad -scales: %v", err)
		}
		fig1Scales = ss
	} else {
		for s := max(8, *scale-6); s <= *scale; s += 2 {
			fig1Scales = append(fig1Scales, s)
		}
	}

	runners := map[string]func() *timing.Table{
		"1":  func() *timing.Table { return bench.Fig1InsertScaling(cfg, fig1Scales) },
		"2":  func() *timing.Table { return bench.Fig2ResizeOverhead(cfg) },
		"3":  func() *timing.Table { return bench.Fig3Partitioning(cfg) },
		"4":  func() *timing.Table { return bench.Fig4Insertions(cfg) },
		"5":  func() *timing.Table { return bench.Fig5Deletions(cfg, *delFrac) },
		"6":  func() *timing.Table { return bench.Fig6Mixed(cfg) },
		"7":  func() *timing.Table { return bench.Fig7LCTBuild(cfg) },
		"8":  func() *timing.Table { return bench.Fig8Queries(cfg, *queries) },
		"9":  func() *timing.Table { return bench.Fig9Subgraph(cfg) },
		"10": func() *timing.Table { return bench.Fig10BFS(cfg) },
		"11": func() *timing.Table { return bench.Fig11TemporalBC(cfg, *sources) },
		"kernel": func() *timing.Table {
			return bench.KernelSweep(cfg, *kernel, *sources)
		},
	}

	var order []string
	if *fig == "all" {
		order = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"}
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				fatalf("unknown figure %q (want 1..11, kernel, or all)", f)
			}
			order = append(order, f)
		}
	}
	for _, f := range order {
		t := runners[f]()
		t.Fprint(os.Stdout)
		fmt.Println()
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("non-positive value %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative value %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snapbench: "+format+"\n", args...)
	os.Exit(2)
}
