package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/centrality"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qcache"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
	"snapdyn/internal/stream"
	"snapdyn/internal/timing"
	"snapdyn/internal/traversal"
	"snapdyn/internal/workload"
)

// workloadSourcePool is the serving working set: queries draw their
// sources from this many sampled giant-component vertices, with Zipf
// rank popularity over the pool. The pool models the reality the cache
// exploits — production analysis traffic concentrates on a finite hot
// set, not the whole id space.
const workloadSourcePool = 256

// FigWorkload prices the result cache under a modeled serving workload
// — ROADMAP item 2's measurement vehicle. For each Zipf exponent s, a
// query mix (workload.DefaultMix) with Zipf-rank source popularity
// over a sampled source pool runs against the serving executor twice —
// caching disabled, then with a cacheBytes budget — while a churn
// ingest goroutine keeps the store dirty and the auto-refresher
// republishes real (pointer-changing) snapshots by age policy, so
// cache generations are born and retired at the refresh cadence
// throughout. Reported per run: sustained QPS, p50/p99, and the cache
// hit/coalesce rate; the cached run's surviving generation is verified
// entry-by-entry against uncached kernel executions on its own pinned
// snapshot (bit-identical levels/distances/labels) before the row is
// emitted.
//
// rate > 0 switches the drivers from closed-loop (send when the last
// reply arrives — measures capacity) to open-loop bursty arrivals at
// that many queries/second per worker (workload.Arrivals, 8x bursts,
// 20ms mean on/off holding — measures latency under a schedule that
// does not politely slow down when the server queues).
func FigWorkload(cfg Config, zipfs []float64, cacheBytes int64, rate float64, perPoint time.Duration) *timing.Table {
	if len(zipfs) == 0 {
		zipfs = []float64{0, 0.8, 1.2}
	}
	if cacheBytes <= 0 {
		cacheBytes = 128 << 20
	}
	if perPoint <= 0 {
		perPoint = time.Second
	}
	const queryWorkers = 4
	n := cfg.n()
	edges := cfg.generate()
	extraCfg := cfg
	extraCfg.Seed += 77
	extra := extraCfg.generate()
	ws := cfg.workers()
	iw := ws[len(ws)-1]

	mode := "closed-loop"
	if rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f q/s/worker 8x bursts", rate)
	}
	t := &timing.Table{
		Title: "Workload: cached vs uncached serving under Zipf/bursty traffic + churn ingest",
		Note: cfg.instanceNote() + fmt.Sprintf(
			" (undirected), %d query workers, %d-source pool, cache %dMiB, %s, %s per run",
			queryWorkers, workloadSourcePool, cacheBytes>>20, mode, perPoint),
	}

	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.Seed))
	store.ApplyBatch(iw, stream.Mirror(stream.Inserts(edges)))
	mgr := snapmgr.New(iw, store)
	// Age-only refresh: under continuous churn every publication is a
	// real snapshot swap, so each one retires the live cache generation
	// — the figure measures the cache at a fixed freshness SLA (2s), not
	// on a conveniently frozen graph.
	mgr.Start(snapmgr.Policy{MaxAge: 2 * time.Second, Poll: 10 * time.Millisecond, Workers: iw})
	defer mgr.Stop()

	churn := churnBatches(extra, max(1024, n/32))
	sources := centrality.SampleSources(mgr.Current(), workloadSourcePool, cfg.Seed+43)

	runPoint := func(label, param string, budget int64, gens []*workload.Generator) {
		ex := qserve.New(mgr, qserve.Config{
			Workers:       1,
			MaxConcurrent: queryWorkers,
			MaxQueue:      4 * queryWorkers,
			Undirected:    true,
			CacheBytes:    budget,
		})

		stopIngest := make(chan struct{})
		var applied atomic.Int64
		var iwg sync.WaitGroup
		iwg.Add(1)
		go func() {
			defer iwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopIngest:
					return
				case <-time.After(10 * time.Millisecond):
				}
				// Paced, not flat-out: an unthrottled ingest loop is a CPU
				// saturation test, not churn — it starves the query side on
				// small boxes and the figure stops measuring the cache. This
				// still dirties the store every window, so every refresh is
				// a real snapshot swap.
				b := churn[i%len(churn)]
				mgr.Ingest(func(s *dyngraph.Tracked) { s.ApplyBatch(iw, b) })
				applied.Add(int64(len(b)))
			}
		}()

		lats := make([][]time.Duration, queryWorkers)
		var shed atomic.Int64
		deadline := time.Now().Add(perPoint)
		var qwg sync.WaitGroup
		elapsed := timing.Time(func() {
			for q := 0; q < queryWorkers; q++ {
				qwg.Add(1)
				go func(q int) {
					defer qwg.Done()
					var arr *workload.Arrivals
					if rate > 0 {
						arr = workload.NewArrivals(rate, 8, 20*time.Millisecond, 20*time.Millisecond,
							cfg.Seed+uint64(q)*1315423911)
					}
					lat := make([]time.Duration, 0, 4096)
					for time.Now().Before(deadline) {
						op := gens[q].Next()
						// Map the generator's rank-space source ids into
						// the sampled pool.
						op.U = sources[int(op.U)%len(sources)]
						op.V = sources[int(op.V)%len(sources)]
						if arr != nil {
							time.Sleep(arr.Next())
						}
						start := time.Now()
						if _, err := workload.Apply(ex, op); err != nil {
							if err == qserve.ErrOverloaded {
								shed.Add(1)
								continue
							}
							panic(fmt.Sprintf("bench: workload query failed: %v", err))
						}
						lat = append(lat, time.Since(start))
					}
					lats[q] = lat
				}(q)
			}
			qwg.Wait()
		})
		close(stopIngest)
		iwg.Wait()

		all := flatten(lats)
		served := len(all)
		extraCols := ""
		if budget > 0 {
			ctr := ex.Cache().Counters()
			total := ctr.Hits + ctr.Misses + ctr.Coalesced
			hitRate := 0.0
			if total > 0 {
				hitRate = float64(ctr.Hits+ctr.Coalesced) / float64(total)
			}
			checked := verifyGeneration(ex.Cache().Current())
			extraCols = fmt.Sprintf(" hit=%.0f%% coalesced=%d evict=%d verified=%d",
				100*hitRate, ctr.Coalesced, ctr.Evictions, checked)
		}
		if s := shed.Load(); s > 0 {
			extraCols += fmt.Sprintf(" shed=%d", s)
		}
		t.Add(timing.Measurement{
			Label: label,
			Param: fmt.Sprintf("%s qps=%.0f p50=%s p99=%s%s", param, float64(served)/elapsed,
				fmtLatency(percentile(all, 0.50)), fmtLatency(percentile(all, 0.99)), extraCols),
			Workers: queryWorkers, Ops: int64(served), Seconds: elapsed,
		})
	}

	for _, s := range zipfs {
		mkGens := func(seedOff uint64) []*workload.Generator {
			root := workload.NewGenerator(workload.Config{
				Vertices: workloadSourcePool, ZipfS: s, Seed: cfg.Seed + 1000 + seedOff,
			})
			gens := make([]*workload.Generator, queryWorkers)
			for q := range gens {
				gens[q] = root.Split()
			}
			return gens
		}
		param := fmt.Sprintf("s=%.1f", s)
		runPoint("workload-uncached", param, 0, mkGens(0))
		runPoint("workload-cached", param, cacheBytes, mkGens(0))
	}
	return t
}

// verifyGeneration recomputes up to 48 of the surviving generation's
// entries uncached against the generation's own pinned snapshot and
// panics on any mismatch — bit-identical levels, distances, labels,
// aggregates, and verdicts, or the figure refuses to report. Returns
// the number of entries checked.
func verifyGeneration(g *qcache.Gen) int {
	if g == nil {
		return 0
	}
	view, ok := g.ID().(*snapmgr.View)
	if !ok || view == nil || view.G == nil {
		return 0
	}
	graph := view.G
	tsc, res := traversal.NewScratch(), &traversal.Result{}
	ssc := sssp.NewScratch()
	var src [1]uint32
	checked := 0
	g.Range(func(k qcache.Key, v qcache.Value) bool {
		if checked >= 48 {
			return false
		}
		switch k.Kind {
		case qcache.KindBFS:
			src[0] = uint32(k.A)
			traversal.Run(graph, src[:1], traversal.Options{Workers: 1}, tsc, res)
			if int64(res.Reached) != v.N1 || int64(res.Levels) != v.N2 {
				panic(fmt.Sprintf("bench: cached BFS aggregates differ at src %d: (%d,%d) vs (%d,%d)",
					k.A, v.N1, v.N2, res.Reached, res.Levels))
			}
			for i := range v.Levels {
				if v.Levels[i] != res.Level[i] {
					panic(fmt.Sprintf("bench: cached BFS level differs at src %d vertex %d: %d vs %d",
						k.A, i, v.Levels[i], res.Level[i]))
				}
			}
		case qcache.KindSSSP:
			dist := sssp.Run(graph, edge.ID(uint32(k.A)),
				sssp.Options{Workers: 1, Delta: int64(k.B), Scratch: ssc})
			for i := range v.Dist {
				if v.Dist[i] != dist[i] {
					panic(fmt.Sprintf("bench: cached SSSP distance differs at src %d vertex %d: %d vs %d",
						k.A, i, v.Dist[i], dist[i]))
				}
			}
		case qcache.KindConnected:
			src[0] = uint32(k.A)
			traversal.Run(graph, src[:1], traversal.Options{Workers: 1}, tsc, res)
			lvl := res.Level[uint32(k.B)]
			if conn := lvl != traversal.NotVisited; conn != v.Flag ||
				(conn && int64(lvl) != v.N1) || (!conn && v.N1 != -1) {
				panic(fmt.Sprintf("bench: cached connectivity differs for (%d,%d): flag=%v hops=%d vs level %d",
					k.A, k.B, v.Flag, v.N1, lvl))
			}
		case qcache.KindComponents:
			comp := cc.ComponentsInto(1, graph, nil)
			if int64(cc.Count(comp)) != v.N1 {
				panic(fmt.Sprintf("bench: cached component count differs: %d vs %d", v.N1, cc.Count(comp)))
			}
			for i := range v.Labels {
				if v.Labels[i] != comp[i] {
					panic(fmt.Sprintf("bench: cached component label differs at vertex %d: %d vs %d",
						i, v.Labels[i], comp[i]))
				}
			}
		}
		checked++
		return true
	})
	return checked
}
