// Package bench implements one experiment driver per figure of the
// paper's evaluation. Each driver generates its workload, runs the
// measured kernel over a worker-count sweep, and returns a timing.Table
// whose rows are the series the paper plots. Drivers are shared by
// cmd/snapbench and the root-level testing.B benchmarks. The serving
// system is measured end to end by benchmark/ (bash benchmark/run.sh),
// not here.
//
// Instance sizes are controlled by Config.Scale; the paper's full-scale
// instances (2^25 vertices, 268M edges) are reachable by raising the
// scale on machines with enough memory.
package bench

import (
	"fmt"

	"snapdyn/internal/centrality"
	"snapdyn/internal/csr"
	"snapdyn/internal/dynconn"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/rmat"
	"snapdyn/internal/sssp"
	"snapdyn/internal/stream"
	"snapdyn/internal/subgraph"
	"snapdyn/internal/timing"
	"snapdyn/internal/traversal"
	"snapdyn/internal/xrand"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale: n = 2^Scale vertices.
	Scale int
	// EdgeFactor: m = EdgeFactor * n edges (paper instances use 8-10).
	EdgeFactor int
	// Workers is the sweep of worker counts; nil uses SweepWorkers over
	// GOMAXPROCS (at least up to 4 so concurrency paths are exercised
	// even on small machines).
	Workers []int
	// TimeMax: edges get uniform time labels in [1, TimeMax].
	TimeMax uint32
	// Seed for all generators.
	Seed uint64
	// BFSEngine selects the traversal engine for every BFS-shaped
	// kernel (the BFS figure, link-cut forest construction, betweenness
	// and closeness sweeps): "topdown" (the default, classic push) or
	// "dirop" (direction-optimizing push/pull).
	BFSEngine string
	// Deltas is the bucket-width sweep for the "sssp" kernel: one
	// measurement series per value, with 0 meaning the heuristic
	// (sssp.HeuristicDelta) width. Empty means just the heuristic.
	Deltas []int64
}

// strategy maps BFSEngine to the engine strategy shared by all kernels.
func (c Config) strategy() traversal.Strategy {
	switch c.BFSEngine {
	case "", "topdown":
		return traversal.TopDown
	case "dirop":
		return traversal.DirectionOpt
	default:
		panic(fmt.Sprintf("bench: unknown BFSEngine %q (want topdown or dirop)", c.BFSEngine))
	}
}

// engineLabel tags a measurement series with the engine choice.
func (c Config) engineLabel(kernel string) string {
	if c.strategy() == traversal.DirectionOpt {
		return kernel + "(dirop)"
	}
	return kernel
}

// DefaultConfig returns a laptop-friendly configuration (n = 2^16,
// m = 10n).
func DefaultConfig() Config {
	return Config{Scale: 16, EdgeFactor: 10, TimeMax: 100, Seed: 20090525}
}

func (c Config) workers() []int {
	if len(c.Workers) > 0 {
		return c.Workers
	}
	maxW := par.MaxWorkers()
	if maxW < 4 {
		maxW = 4
	}
	return timing.SweepWorkers(maxW)
}

func (c Config) n() int { return 1 << c.Scale }
func (c Config) m() int { return c.EdgeFactor * c.n() }

func (c Config) generate() []edge.Edge {
	p := rmat.PaperParams(c.Scale, c.m(), c.TimeMax, c.Seed)
	edges, err := rmat.Generate(0, p)
	if err != nil {
		panic(fmt.Sprintf("bench: generation failed: %v", err))
	}
	return edges
}

func (c Config) degrees(edges []edge.Edge) []int {
	deg := make([]int, c.n())
	for _, e := range edges {
		deg[e.U]++
	}
	return deg
}

func (c Config) instanceNote() string {
	return fmt.Sprintf("R-MAT n=2^%d (%d vertices), m=%d (%dn), seed=%d",
		c.Scale, c.n(), c.m(), c.EdgeFactor, c.Seed)
}

// Fig1InsertScaling reproduces Figure 1: Dyn-arr-nr insertion MUPS as the
// problem size sweeps across orders of magnitude, at a low and a high
// worker count (the paper's 1-core and 8-core panels). The paper's
// observation to reproduce: the rate drops once the memory footprint
// exceeds cache.
func Fig1InsertScaling(cfg Config, scales []int) *timing.Table {
	if len(scales) == 0 {
		scales = []int{12, 14, 16, 18}
	}
	ws := cfg.workers()
	low, high := ws[0], ws[len(ws)-1]
	t := &timing.Table{
		Title: "Figure 1: Dyn-arr-nr insertions vs problem size",
		Note:  fmt.Sprintf("m = %dn, worker counts %d and %d", cfg.EdgeFactor, low, high),
	}
	for _, scale := range scales {
		c := cfg
		c.Scale = scale
		edges := c.generate()
		ups := stream.Inserts(edges)
		for _, w := range []int{low, high} {
			s := dyngraph.NewDynArrNoResize(c.degrees(edges))
			secs := timing.Time(func() { s.ApplyBatch(w, ups) })
			t.Add(timing.Measurement{
				Label: "dyn-arr-nr", Param: fmt.Sprintf("n=2^%d", scale),
				Workers: w, Ops: int64(len(ups)), Seconds: secs,
			})
		}
	}
	return t
}

// Fig2ResizeOverhead reproduces Figure 2: construction MUPS of Dyn-arr
// (initial adjacency size 16, doubling resizes) against the no-resize
// upper bound, across the worker sweep. The observation: the resizing
// penalty is modest.
func Fig2ResizeOverhead(cfg Config) *timing.Table {
	edges := cfg.generate()
	ups := stream.Inserts(edges)
	t := &timing.Table{
		Title: "Figure 2: Dyn-arr vs Dyn-arr-nr construction (resize overhead)",
		Note:  cfg.instanceNote() + ", initial array size 16",
	}
	for _, w := range cfg.workers() {
		s := dyngraph.NewDynArrInitial(cfg.n(), 16, cfg.m())
		secs := timing.Time(func() { s.ApplyBatch(w, ups) })
		t.Add(timing.Measurement{Label: "dyn-arr", Workers: w, Ops: int64(len(ups)), Seconds: secs})

		nr := dyngraph.NewDynArrNoResize(cfg.degrees(edges))
		secs = timing.Time(func() { nr.ApplyBatch(w, ups) })
		t.Add(timing.Measurement{Label: "dyn-arr-nr", Workers: w, Ops: int64(len(ups)), Seconds: secs})
	}
	return t
}

// Fig3Partitioning reproduces Figure 3: insert-only performance of
// Dyn-arr-nr against vertex partitioning, edge partitioning, and the
// batched upper bound (semi-sort time alone), at the largest worker
// count. The observation: Dyn-arr outperforms the alternatives.
func Fig3Partitioning(cfg Config) *timing.Table {
	edges := cfg.generate()
	ups := stream.Inserts(edges)
	ws := cfg.workers()
	w := ws[len(ws)-1]
	t := &timing.Table{
		Title: "Figure 3: insertions — Dyn-arr-nr vs Vpart vs Epart vs batched bound",
		Note:  cfg.instanceNote() + fmt.Sprintf(", %d workers", w),
	}
	for _, wrk := range []int{1, w} {
		nr := dyngraph.NewDynArrNoResize(cfg.degrees(edges))
		secs := timing.Time(func() { nr.ApplyBatch(wrk, ups) })
		t.Add(timing.Measurement{Label: "dyn-arr-nr", Workers: wrk, Ops: int64(len(ups)), Seconds: secs})

		vp := dyngraph.NewVpart(cfg.n(), cfg.m())
		secs = timing.Time(func() { vp.ApplyBatch(wrk, ups) })
		t.Add(timing.Measurement{Label: "vpart", Workers: wrk, Ops: int64(len(ups)), Seconds: secs})

		ep := dyngraph.NewEpart(cfg.n(), cfg.m(), 0)
		secs = timing.Time(func() { ep.ApplyBatch(wrk, ups) })
		t.Add(timing.Measurement{Label: "epart", Workers: wrk, Ops: int64(len(ups)), Seconds: secs})

		// Batched upper bound: the semi-sort alone.
		secs = timing.Time(func() { dyngraph.SemiSort(wrk, ups) })
		t.Add(timing.Measurement{Label: "batched-bound(semisort)", Workers: wrk, Ops: int64(len(ups)), Seconds: secs})
	}
	return t
}

// newRepStores builds the Figure 4-6 contenders.
func newRepStores(cfg Config) []dyngraph.Store {
	return []dyngraph.Store{
		dyngraph.NewDynArr(cfg.n(), cfg.m()),
		dyngraph.NewTreapStore(cfg.n(), cfg.Seed),
		dyngraph.NewHybrid(cfg.n(), cfg.m(), 0, cfg.Seed),
	}
}

// Fig4Insertions reproduces Figure 4: graph construction (a series of
// insertions) under Dyn-arr, Treaps, and Hybrid. Expected shape: Dyn-arr
// fastest (~1.4x Hybrid), Hybrid slightly faster than Treaps.
func Fig4Insertions(cfg Config) *timing.Table {
	edges := cfg.generate()
	ups := stream.Inserts(edges)
	t := &timing.Table{
		Title: "Figure 4: insertions — Dyn-arr vs Treaps vs Hybrid",
		Note:  cfg.instanceNote(),
	}
	for _, w := range cfg.workers() {
		for _, s := range newRepStores(cfg) {
			secs := timing.Time(func() { s.ApplyBatch(w, ups) })
			t.Add(timing.Measurement{Label: s.Name(), Workers: w, Ops: int64(len(ups)), Seconds: secs})
		}
	}
	return t
}

// Fig5Deletions reproduces Figure 5: random deletions after
// construction. delFrac is the fraction of m to delete (the paper deletes
// 20M of 268M ≈ 7.5%). Expected shape: Hybrid ~20x Dyn-arr, and faster
// than Treaps.
func Fig5Deletions(cfg Config, delFrac float64) *timing.Table {
	if delFrac <= 0 {
		delFrac = 0.075
	}
	edges := cfg.generate()
	dels := stream.Deletions(edges, int(float64(len(edges))*delFrac), cfg.Seed+5)
	t := &timing.Table{
		Title: "Figure 5: deletions — Dyn-arr vs Treaps vs Hybrid",
		Note:  cfg.instanceNote() + fmt.Sprintf(", %d random deletions", len(dels)),
	}
	for _, w := range cfg.workers() {
		for _, s := range newRepStores(cfg) {
			dyngraph.InsertAll(s, 0, edges) // untimed construction
			secs := timing.Time(func() { s.ApplyBatch(w, dels) })
			t.Add(timing.Measurement{Label: s.Name(), Workers: w, Ops: int64(len(dels)), Seconds: secs})
		}
	}
	return t
}

// Fig6Mixed reproduces Figure 6: a mixed stream of updates (75%
// insertions, 25% deletions) applied after construction. Expected shape:
// Hybrid and Dyn-arr comparable, Treaps slower.
func Fig6Mixed(cfg Config) *timing.Table {
	edges := cfg.generate()
	extraCfg := cfg
	extraCfg.Seed += 99
	extra := extraCfg.generate()
	count := len(edges) / 5
	ups, err := stream.Mixed(edges, extra, count, 0.75, cfg.Seed+6)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	t := &timing.Table{
		Title: "Figure 6: mixed updates (75% ins / 25% del) — Dyn-arr vs Treaps vs Hybrid",
		Note:  cfg.instanceNote() + fmt.Sprintf(", %d updates", len(ups)),
	}
	for _, w := range cfg.workers() {
		for _, s := range newRepStores(cfg) {
			dyngraph.InsertAll(s, 0, edges)
			secs := timing.Time(func() { s.ApplyBatch(w, ups) })
			t.Add(timing.Measurement{Label: s.Name(), Workers: w, Ops: int64(len(ups)), Seconds: secs})
		}
	}
	return t
}

// Fig7LCTBuild reproduces Figure 7: link-cut tree construction (BFS
// forest + connected components) time and speedup across the worker
// sweep. The paper uses m ≈ 8.4n.
func Fig7LCTBuild(cfg Config) *timing.Table {
	edges := cfg.generate()
	g := csr.FromEdges(0, cfg.n(), edges, true)
	t := &timing.Table{
		Title: "Figure 7: link-cut tree construction",
		Note:  cfg.instanceNote() + " (undirected)",
	}
	strat := cfg.strategy()
	for _, w := range cfg.workers() {
		secs := timing.Time(func() { dynconn.BuildStrategy(w, g, strat) })
		t.Add(timing.Measurement{Label: cfg.engineLabel("lct-build"), Workers: w, Ops: g.NumEdges(), Seconds: secs})
	}
	return t
}

// Fig8Queries reproduces Figure 8: connectivity query processing on the
// link-cut tree (two findroot operations per query), queries processed
// in parallel.
func Fig8Queries(cfg Config, numQueries int) *timing.Table {
	if numQueries <= 0 {
		numQueries = 1_000_000
	}
	edges := cfg.generate()
	g := csr.FromEdges(0, cfg.n(), edges, true)
	f := dynconn.Build(0, g)
	queries := randomQueries(cfg, numQueries)
	results := make([]bool, len(queries))
	t := &timing.Table{
		Title: "Figure 8: connectivity queries on the link-cut tree",
		Note:  cfg.instanceNote() + fmt.Sprintf(", %d queries", numQueries),
	}
	for _, w := range cfg.workers() {
		secs := timing.Time(func() { f.ConnectedBatch(w, queries, results) })
		t.Add(timing.Measurement{Label: "lct-query", Workers: w, Ops: int64(len(queries)), Seconds: secs})
	}
	return t
}

func randomQueries(cfg Config, k int) []dynconn.Query {
	r := xrand.New(cfg.Seed + 8)
	n := uint32(cfg.n())
	qs := make([]dynconn.Query, k)
	for i := range qs {
		qs[i] = dynconn.Query{U: r.Uint32n(n), V: r.Uint32n(n)}
	}
	return qs
}

// Fig9Subgraph reproduces Figure 9: the induced subgraph kernel
// extracting the edges with time labels in the open interval (20, 70)
// out of labels uniform in [1, 100].
func Fig9Subgraph(cfg Config) *timing.Table {
	cfgT := cfg
	if cfgT.TimeMax == 0 {
		cfgT.TimeMax = 100
	}
	edges := cfgT.generate()
	g := csr.FromEdges(0, cfgT.n(), edges, false)
	t := &timing.Table{
		Title: "Figure 9: induced subgraph (time interval (20,70))",
		Note:  cfgT.instanceNote(),
	}
	pred := subgraph.TimeInterval(20, 70)
	for _, w := range cfgT.workers() {
		var sub *csr.Graph
		secs := timing.Time(func() { sub = subgraph.InducedByEdges(w, g, pred) })
		t.Add(timing.Measurement{
			Label: "induced-subgraph", Param: fmt.Sprintf("kept=%d", sub.NumEdges()),
			Workers: w, Ops: g.NumEdges(), Seconds: secs,
		})
	}
	return t
}

// Fig10BFS reproduces Figure 10: parallel BFS with a time-stamp check on
// a large time-stamped instance, time and speedup across the sweep. The
// source is a vertex in the largest component.
func Fig10BFS(cfg Config) *timing.Table {
	edges := cfg.generate()
	g := csr.FromEdges(0, cfg.n(), edges, true)
	src := largestComponentVertex(g)
	strategy, label := cfg.strategy(), cfg.engineLabel("temporal-bfs")
	t := &timing.Table{
		Title: "Figure 10: parallel BFS with time-stamp filtering",
		Note:  cfg.instanceNote() + fmt.Sprintf(" (undirected), source %d, engine %s", src, label),
	}
	filter := traversal.TimeWindow(1, cfg.TimeMax)
	scratch := traversal.NewScratch()
	res := &traversal.Result{}
	for _, w := range cfg.workers() {
		opt := traversal.Options{Workers: w, Strategy: strategy, Filter: filter}
		secs := timing.Time(func() { traversal.Run(g, []uint32{src}, opt, scratch, res) })
		t.Add(timing.Measurement{
			Label: label, Param: fmt.Sprintf("reached=%d", res.Reached),
			Workers: w, Ops: g.NumEdges(), Seconds: secs,
		})
	}
	return t
}

// Fig11TemporalBC reproduces Figure 11: approximate temporal betweenness
// centrality from sampled sources (the paper samples 256) with time
// labels in [0, 20].
func Fig11TemporalBC(cfg Config, numSources int) *timing.Table {
	if numSources <= 0 {
		numSources = 256
	}
	cfgT := cfg
	cfgT.TimeMax = 20
	edges := cfgT.generate()
	g := csr.FromEdges(0, cfgT.n(), edges, true)
	sources := centrality.SampleSources(g, numSources, cfgT.Seed+11)
	t := &timing.Table{
		Title: "Figure 11: approximate temporal betweenness centrality",
		Note:  cfgT.instanceNote() + fmt.Sprintf(", %d sampled sources, labels in [1,20]", len(sources)),
	}
	strat := cfgT.strategy()
	for _, w := range cfgT.workers() {
		secs := timing.Time(func() {
			centrality.Betweenness(w, g, centrality.Options{
				Temporal: true, Sources: sources, Normalize: true, Strategy: strat,
			})
		})
		t.Add(timing.Measurement{
			Label: cfgT.engineLabel("temporal-bc"), Workers: w,
			Ops: int64(len(sources)) * g.NumEdges(), Seconds: secs,
		})
	}
	return t
}

// KernelSweep is the unified-kernel experiment enabled by the visitor
// engine: one driver that runs any BFS-shaped kernel — plain BFS ("bfs"),
// sampled static betweenness ("bc"), or closeness ("closeness") — over
// the worker sweep, with Config.BFSEngine selecting the traversal
// strategy for all of them. It demonstrates (and measures) that the one
// engine serves every kernel; compare a topdown run against a dirop run
// of the same kernel to see the pull step's effect beyond plain BFS.
//
// The weighted kernel ("sssp") sweeps delta-stepping shortest paths
// with the arc time labels as weights — one series per Config.Deltas
// bucket width over the worker sweep, against a single-threaded typed-
// heap Dijkstra baseline series. Runs after the first reuse a warm
// sssp.Scratch, so the steady-state numbers reflect the pre-partitioned
// zero-allocation kernel, not arena warm-up.
func KernelSweep(cfg Config, kernel string, numSources int) *timing.Table {
	if numSources <= 0 {
		numSources = 256
	}
	edges := cfg.generate()
	g := csr.FromEdges(0, cfg.n(), edges, true)
	strat := cfg.strategy()
	t := &timing.Table{
		Title: fmt.Sprintf("Unified kernel sweep: %s", kernel),
		Note:  cfg.instanceNote() + " (undirected)",
	}
	switch kernel {
	case "bfs":
		src := largestComponentVertex(g)
		scratch := traversal.NewScratch()
		res := &traversal.Result{}
		t.Note += fmt.Sprintf(", source %d", src)
		for _, w := range cfg.workers() {
			opt := traversal.Options{Workers: w, Strategy: strat}
			secs := timing.Time(func() { traversal.Run(g, []uint32{src}, opt, scratch, res) })
			t.Add(timing.Measurement{
				Label: cfg.engineLabel("bfs"), Param: fmt.Sprintf("reached=%d", res.Reached),
				Workers: w, Ops: g.NumEdges(), Seconds: secs,
			})
		}
	case "bc":
		sources := centrality.SampleSources(g, numSources, cfg.Seed+11)
		t.Note += fmt.Sprintf(", %d sampled sources", len(sources))
		for _, w := range cfg.workers() {
			secs := timing.Time(func() {
				centrality.Betweenness(w, g, centrality.Options{
					Sources: sources, Normalize: true, Strategy: strat,
				})
			})
			t.Add(timing.Measurement{
				Label: cfg.engineLabel("bc"), Workers: w,
				Ops: int64(len(sources)) * g.NumEdges(), Seconds: secs,
			})
		}
	case "closeness":
		sources := centrality.SampleSources(g, numSources, cfg.Seed+12)
		t.Note += fmt.Sprintf(", %d sampled sources", len(sources))
		for _, w := range cfg.workers() {
			secs := timing.Time(func() { centrality.Closeness(w, g, sources, strat) })
			t.Add(timing.Measurement{
				Label: cfg.engineLabel("closeness"), Workers: w,
				Ops: int64(len(sources)) * g.NumEdges(), Seconds: secs,
			})
		}
	case "sssp":
		src := largestComponentVertex(g)
		deltas := cfg.Deltas
		if len(deltas) == 0 {
			deltas = []int64{0}
		}
		t.Note += fmt.Sprintf(", source %d, label weights", src)
		for _, delta := range deltas {
			// One scratch per delta: the chosen delta is cached by
			// (graph, delta), so the worker sweep reuses it and the
			// bucket ring sized for it.
			scratch := sssp.NewScratch()
			opt := sssp.Options{Delta: delta, Scratch: scratch}
			sssp.Run(g, src, opt) // warm the buffers and ring
			for _, w := range cfg.workers() {
				opt.Workers = w
				secs := timing.Time(func() { sssp.Run(g, src, opt) })
				t.Add(timing.Measurement{
					Label: "sssp-delta", Param: deltaParam(delta),
					Workers: w, Ops: g.NumEdges(), Seconds: secs,
				})
			}
		}
		secs := timing.Time(func() { sssp.Dijkstra(g, src, sssp.LabelWeights) })
		t.Add(timing.Measurement{
			Label: "sssp-dijkstra", Workers: 1, Ops: g.NumEdges(), Seconds: secs,
		})
	default:
		panic(fmt.Sprintf("bench: unknown kernel %q (want bfs, bc, closeness, or sssp)", kernel))
	}
	return t
}

// deltaParam tags an sssp series with its bucket width.
func deltaParam(delta int64) string {
	if delta <= 0 {
		return "delta=auto"
	}
	return fmt.Sprintf("delta=%d", delta)
}

func largestComponentVertex(g *csr.Graph) edge.ID {
	// The highest-degree vertex is in the giant component of an R-MAT
	// graph with overwhelming probability.
	best := edge.ID(0)
	var bestDeg int64
	for u := 0; u < g.N; u++ {
		if d := g.Degree(edge.ID(u)); d > bestDeg {
			bestDeg = d
			best = edge.ID(u)
		}
	}
	return best
}
