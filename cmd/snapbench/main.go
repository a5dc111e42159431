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
//	snapbench -fig pipeline -scale 16 -qworkers 4
//
// Figures map to the paper as documented in DESIGN.md: 1-6 are the
// dynamic-representation experiments, 7-8 the link-cut tree, 9 the
// induced subgraph kernel, 10 temporal BFS, 11 approximate temporal
// betweenness centrality. The extra figure "kernel" sweeps one
// BFS-shaped kernel (-kernel=bfs|bc|closeness) on the unified visitor
// engine, or the weighted delta-stepping kernel (-kernel=sssp, time
// labels as arc weights, one series per -deltas bucket width with 0
// meaning the default heuristic width, plus a sequential Dijkstra
// baseline series); the -bfs engine choice applies to every BFS-shaped
// kernel (figures 7, 10, 11, and kernel), not just plain BFS. The
// figure "pipeline" exercises the incremental snapshot pipeline:
// refresh latency vs dirty fraction against a full rebuild, then
// sustained mixed ingest/query with -qworkers concurrent BFS/SSSP
// readers over the epoch-versioned snapshots. The figure "service"
// measures the serving stack itself (auto-refreshing manager + pooled
// query executor, the snapserve configuration): sustained QPS with
// p50/p99 per-query latency under mixed ingest/query load, sweeping
// 1..-qworkers concurrent query workers with -qduration of sustained
// load per point, plus the allocation-churn measurement behind the
// RCU-by-GC verdict in ROADMAP.md. The figure "shard" sweeps the
// vertex-partitioned fleet (-shards counts): bulk-load ingest MUPS
// through P concurrent shard gates, scatter-gather BFS rate over the
// per-shard pinned snapshots, and sustained mixed QPS through the
// fleet executor, each against the single-store baseline. The figure
// "memory" sweeps the memory-scale snapshot formats (plain, degree-,
// BFS- and RCM-reordered CSR, gap-compressed adjacency): bytes per
// stored arc against BFS and SSSP traversal rate on each format, over
// the -scales list (default just -scale). The figure "ingest" prices
// durability: sustained ingest MUPS through the volatile gate vs the
// group-commit write-ahead log (fsync before every ack) under the same
// concurrent query load, the achieved updates-per-fsync amortization,
// and a measured crash recovery (checkpoint load + log-tail replay) of
// the directory the WAL phase leaves behind. The figure "workload"
// prices the snapshot-identity result cache under modeled serving
// traffic: for each -zipf exponent it drives a skewed query mix
// (closed loop, or open-loop bursty arrivals with -rate) against the
// serving executor with caching off and then with a -cache-bytes
// budget, under concurrent churn ingest with age-policy refreshes, and
// reports sustained QPS, p50/p99, and the hit rate — every cached run
// is verified bit-identical against uncached recomputation on the same
// pinned snapshot before its row is printed. -json additionally writes
// every measured table to a file for the committed BENCH_*.json
// artifacts.
//
//	snapbench -fig service -scale 16 -qworkers 8 -qduration 2s
//	snapbench -fig shard -scale 16 -shards 1,2,4,8 -json BENCH_shard.json
//	snapbench -fig memory -scales 16,18 -json BENCH_memory.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"snapdyn/internal/bench"
	"snapdyn/internal/timing"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to run: 1..11 or 'all'")
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
		qworkers   = flag.Int("qworkers", 4, "concurrent query workers for the 'pipeline' figure; max of the query-worker sweep for 'service'")
		qduration  = flag.Duration("qduration", time.Second, "sustained-load duration per sweep point for the 'service' figure")
		deltas     = flag.String("deltas", "", "comma-separated delta-stepping bucket widths to sweep for -kernel=sssp (0 = the default heuristic width; default just the heuristic)")
		scales     = flag.String("scales", "", "comma-separated scales for figure 1 (default scale-6..scale)")
		shards     = flag.String("shards", "1,2,4,8", "comma-separated shard counts for the 'shard' figure")
		zipfs      = flag.String("zipf", "0,0.8,1.2", "comma-separated Zipf exponents for the 'workload' figure")
		cacheBytes = flag.Int64("cache-bytes", 128<<20, "result-cache budget for the 'workload' figure's cached runs")
		rate       = flag.Float64("rate", 0, "open-loop arrival rate (queries/s per worker) for the 'workload' figure; 0 = closed loop")
		jsonPath   = flag.String("json", "", "also write the measured tables as JSON to this file")
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
		"pipeline": func() *timing.Table {
			return bench.FigPipeline(cfg, *qworkers)
		},
		"memory": func() *timing.Table {
			var memScales []int
			if *scales != "" {
				ss, err := parseInts(*scales)
				if err != nil {
					fatalf("bad -scales: %v", err)
				}
				memScales = ss
			}
			return bench.FigMemory(cfg, memScales)
		},
		"service": func() *timing.Table {
			return bench.FigService(cfg, *qworkers, *qduration)
		},
		"ingest": func() *timing.Table {
			return bench.FigIngest(cfg, *qworkers, *qduration)
		},
		"shard": func() *timing.Table {
			sc, err := parseInts(*shards)
			if err != nil {
				fatalf("bad -shards: %v", err)
			}
			return bench.FigShard(cfg, sc, *qworkers, *qduration)
		},
		"workload": func() *timing.Table {
			zs, err := parseFloats(*zipfs)
			if err != nil {
				fatalf("bad -zipf: %v", err)
			}
			return bench.FigWorkload(cfg, zs, *cacheBytes, *rate, *qduration)
		},
	}

	var order []string
	if *fig == "all" {
		order = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"}
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				fatalf("unknown figure %q (want 1..11, kernel, pipeline, service, shard, memory, ingest, workload, or all)", f)
			}
			order = append(order, f)
		}
	}
	type figure struct {
		Fig   string               `json:"fig"`
		Title string               `json:"title"`
		Note  string               `json:"note,omitempty"`
		Rows  []timing.Measurement `json:"rows"`
	}
	var measured []figure
	for _, f := range order {
		t := runners[f]()
		t.Fprint(os.Stdout)
		fmt.Println()
		measured = append(measured, figure{Fig: f, Title: t.Title, Note: t.Note, Rows: t.Rows})
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			fatalf("encoding -json: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatalf("writing -json: %v", err)
		}
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

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("negative value %g", v)
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
