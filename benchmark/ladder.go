package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"snapdyn/internal/cc"
	"snapdyn/internal/cluster"
	"snapdyn/internal/durable"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/rmat"
	"snapdyn/internal/shard"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/sssp"
	"snapdyn/internal/stream"
	"snapdyn/internal/traversal"
	"snapdyn/internal/wal"
)

// The ladder's fixed op list.
const (
	ladderSources = 64   // point kinds run once per source
	ladderGlobals = 5    // repetitions of the cheap whole-graph kind
	ladderHeavy   = 2    // repetitions of clustering and PageRank
	ladderBatches = 200  // write rungs apply this many churn batches
	ladderBatch   = 1024 // updates per churn batch
	refreshDirty  = 4096 // dirty vertices per timed delta refresh
	refreshRounds = 8
)

// samples is a list of timings in microseconds.
type samples []float64

func (s samples) median() float64 { return median(s) }

// timeUS runs fn and returns its duration in microseconds.
func timeUS(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t)) / 1e3
}

// ladder accumulates the per-layer metrics and the printed table.
type ladder struct {
	in  *graphInput
	w   io.Writer
	out map[string]metric

	src   []uint32        // the fixed point-kind operands
	churn [][]edge.Update // the fixed write op list, directed
}

func (l *ladder) us(name string, s samples) float64 {
	v := s.median()
	l.out[name] = metric{Value: v, Unit: "us", N: len(s)}
	return v
}

func (l *ladder) set(name string, v float64, unit string, n int) {
	l.out[name] = metric{Value: v, Unit: unit, N: n}
}

// freshStore generates nothing: it bulk-loads the seed's edge list
// into a new tracked hybrid store and takes the first snapshot, timing
// both — the two halves of snapserve's set-up after generation.
func (l *ladder) freshStore(loads, snaps *samples) (*dyngraph.Tracked, *snapmgr.Manager) {
	ups := stream.Mirror(stream.Inserts(l.in.edges))
	store := dyngraph.NewTracked(dyngraph.NewHybrid(l.in.n, 4*len(l.in.edges), 0, l.in.seed))
	*loads = append(*loads, timeUS(func() { store.ApplyBatch(0, ups) })/1e6)
	var mgr *snapmgr.Manager
	*snaps = append(*snaps, timeUS(func() { mgr = snapmgr.New(0, store) })/1e6)
	return store, mgr
}

// runLadder times one fixed op list at every layer boundary by calling
// the layers' public functions, bottom rung first. A layer's self time
// is its rung minus the rung below, both as medians.
func runLadder(in *graphInput, tmp string, w io.Writer) (map[string]metric, error) {
	l := &ladder{in: in, w: w, out: map[string]metric{}, src: in.hotPool(ladderSources+1, in.seed)}
	cg := newChurnGen(in.scale, ladderBatch, in.seed)
	for i := 0; i < ladderBatches; i++ {
		l.churn = append(l.churn, cg.next())
	}

	gen := timeUS(func() {
		rmat.Generate(0, rmat.PaperParams(in.scale, edgeFactor*in.n, 100, in.seed))
	}) / 1e6
	l.set("rmat.generate_s", gen, "s", 1)

	var loads, snaps samples
	fmt.Fprintf(w, "\n== ladder: scale %d, %d arcs-to-be, %d sources, %d x %d-update batches\n",
		in.scale, 2*len(in.edges), ladderSources, ladderBatches, ladderBatch)
	if err := l.reads(&loads, &snaps); err != nil {
		return nil, err
	}
	if err := l.writes(tmp, &loads, &snaps); err != nil {
		return nil, err
	}
	l.fleet()
	l.set("dyngraph.bulk_load_s", loads.median(), "s", len(loads))
	l.set("snapmgr.first_snapshot_s", snaps.median(), "s", len(snaps))
	fmt.Fprintf(w, "   set-up: generate %.3f s, bulk load %.3f s (n=%d), first snapshot %.3f s\n",
		gen, loads.median(), len(loads), snaps.median())
	return l.out, nil
}

// readKind is one query kind's place on the read ladder.
type readKind struct {
	name   string
	spec   *qserve.Spec
	args   func(i int) qserve.Args
	n      int
	kernel func(i int) // nil: the kernel is not public (PageRank) or another layer's (live)
}

func (l *ladder) reads(loads, snaps *samples) error {
	_, mgr := l.freshStore(loads, snaps)
	g := mgr.View().G
	src := l.src[:ladderSources]
	pair := func(i int) (uint32, uint32) { return src[i], src[(i+1)%len(src)] }

	// Kernel scratch, reused across calls as the executor's pool does.
	trav, res := traversal.NewScratch(), &traversal.Result{}
	ssc := sssp.NewScratch()
	clus := cluster.NewScratch()
	var comp []uint32
	var sizes []int
	one := make([]uint32, 1)
	bfsOpt := traversal.Options{Workers: 1, Strategy: traversal.DirectionOpt}
	var target uint32
	connOpt := bfsOpt
	connOpt.Hooks.OnLevelEnd = func(int32, int) bool { return res.Level[target] == traversal.NotVisited }
	khopOpt := bfsOpt
	khopOpt.Hooks.OnLevelEnd = func(level int32, _ int) bool { return level < khopK }

	kinds := []readKind{
		{name: "bfs", spec: qserve.SpecBFS, n: len(src),
			args:   func(i int) qserve.Args { return qserve.Args{A: uint64(src[i])} },
			kernel: func(i int) { one[0] = src[i]; traversal.Run(g, one, bfsOpt, trav, res) }},
		{name: "sssp", spec: qserve.SpecSSSP, n: len(src),
			args:   func(i int) qserve.Args { return qserve.Args{A: uint64(src[i])} },
			kernel: func(i int) { sssp.Run(g, src[i], sssp.Options{Workers: 1, Scratch: ssc}) }},
		{name: "khop", spec: qserve.SpecKHop, n: len(src),
			args:   func(i int) qserve.Args { return qserve.Args{A: uint64(src[i]), B: khopK} },
			kernel: func(i int) { one[0] = src[i]; traversal.Run(g, one, khopOpt, trav, res) }},
		{name: "connected", spec: qserve.SpecConnected, n: len(src),
			args: func(i int) qserve.Args { u, v := pair(i); return qserve.Args{A: uint64(u), B: uint64(v)} },
			kernel: func(i int) {
				one[0], target = pair(i)
				traversal.Run(g, one, connOpt, trav, res)
			}},
		{name: "connected-live", spec: qserve.SpecConnected, n: len(src),
			args: func(i int) qserve.Args { u, v := pair(i); return qserve.Args{A: uint64(u), B: uint64(v), Live: true} }},
		{name: "components", spec: qserve.SpecComponents, n: ladderGlobals,
			args: func(int) qserve.Args { return qserve.Args{} },
			kernel: func(int) {
				comp = cc.ComponentsInto(1, g, comp)
				sizes = cc.CensusInto(1, comp, sizes)
				cc.LargestOf(1, sizes)
			}},
		{name: "clustering", spec: qserve.SpecClustering, n: ladderHeavy,
			args: func(int) qserve.Args { return qserve.Args{} },
			kernel: func(int) {
				clus.ComputeCSR(1, g)
				clus.Aggregate(func(u uint32) uint32 { return u }, g.N)
			}},
		{name: "pagerank", spec: qserve.SpecPageRank, n: ladderHeavy,
			args: func(int) qserve.Args { return qserve.PageRankArgs(0) }},
	}

	warm := qserve.Args{A: uint64(l.src[ladderSources]), B: uint64(l.src[0])} // an operand outside the op list
	// retire publishes a new snapshot with the same content (one arc
	// pair inserted and deleted again), which retires the cache
	// generation the way a refresh does on the server: the next query is
	// a miss on warm scratch.
	retire := func() {
		e := edge.Edge{U: l.src[ladderSources], V: l.src[0], T: 1}
		for _, op := range []edge.Op{edge.Insert, edge.Delete} {
			b := stream.Mirror([]edge.Update{{Edge: e, Op: op}})
			mgr.IngestEpoch(func(t *dyngraph.Tracked) { t.ApplyBatch(0, b) })
		}
		mgr.Refresh(0)
	}
	fmt.Fprintf(l.w, "   reads, median us per op; self = median of the per-op difference to the rung below\n")
	fmt.Fprintf(l.w, "   %-15s %10s %10s %10s %10s %10s | %9s %9s %9s\n",
		"kind", "kernel", "exec", "miss", "hit", "http(hit)", "exec.self", "miss.self", "http.self")
	off := qserve.New(mgr, qserve.Config{Undirected: true})
	off.EnableLive()
	for _, k := range kinds {
		live := k.name == "connected-live"
		mix := kindIndex(k.name)
		global := registryMix[mix].global
		// A fresh cache-on executor per kind: the first query for an
		// operand is a miss into an empty generation, the second a hit.
		on := qserve.New(mgr, qserve.Config{Undirected: true, CacheBytes: defaultCacheBytes})
		on.EnableLive()
		ts := httptest.NewServer(qserve.NewServer(on, true, 0).Handler())
		c := newConn()

		// Warm every rung on an operand outside the op list; a kind
		// without operands has only its one request.
		warmArgs := warm
		switch {
		case global:
			warmArgs = k.args(0)
		case k.name == "khop":
			warmArgs.B = khopK
		}
		warmArgs.Live = live
		if k.kernel != nil {
			k.kernel(0)
		}
		for _, ex := range []*qserve.Executor{off, on} {
			if _, err := ex.Query(k.spec, warmArgs); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
		}
		path := query{kind: uint8(mix), u: uint32(warmArgs.A), v: uint32(warmArgs.B)}.path(nil)
		c.get(ts.URL, path)

		// Each op climbs the heavy rungs (kernel, executor, cache miss)
		// before the next op starts, so a slow spell of the box lands on
		// neighbouring rungs alike and cancels in their difference. The
		// light rungs (cache hit, HTTP in front of it) climb in a second
		// pass: run straight after a kernel they would be timed with the
		// processor's caches emptied, which a hit on the server is not.
		var kernel, exec, miss, hit, viaHTTP, execSelf, missSelf, httpSelf samples
		for i := 0; i < k.n; i++ {
			a := k.args(i)
			kn := 0.0
			if k.kernel != nil {
				kn = timeUS(func() { k.kernel(i) })
				kernel = append(kernel, kn)
			}
			ex := timeUS(func() { off.Query(k.spec, a) })
			exec = append(exec, ex)
			if k.kernel != nil {
				execSelf = append(execSelf, ex-kn)
			}
			if global {
				retire() // one key: retire its generation before every miss
			}
			var r qserve.Result
			mi := timeUS(func() { r, _ = on.Query(k.spec, a) })
			if r.Cache == qserve.CacheMiss {
				miss = append(miss, mi)
				missSelf = append(missSelf, mi-ex)
			}
		}
		for i := 0; i < k.n; i++ {
			a := k.args(i)
			var r qserve.Result
			hi := timeUS(func() { r, _ = on.Query(k.spec, a) })
			if r.Cache != qserve.CacheHit && !live {
				continue
			}
			hit = append(hit, hi)
			path = query{kind: uint8(mix), u: uint32(a.A), v: uint32(a.B)}.path(path[:0])
			ht := timeUS(func() { c.get(ts.URL, path) })
			viaHTTP = append(viaHTTP, ht)
			httpSelf = append(httpSelf, ht-hi)
		}
		c.close()
		ts.Close()

		if k.kernel != nil {
			l.us("kernel.us."+k.name, kernel)
			l.us("qserve.exec_self_us."+k.name, execSelf)
		}
		if !live {
			l.us("qcache.hit_us."+k.name, hit)
			l.us("qcache.miss_self_us."+k.name, missSelf)
		}
		l.us("qserve.http_self_us."+k.name, httpSelf)
		fmt.Fprintf(l.w, "   %-15s %10.1f %10.1f %10.1f %10.1f %10.1f | %9.1f %9.1f %9.1f   [%d]\n",
			k.name, kernel.median(), exec.median(), miss.median(), hit.median(), viaHTTP.median(),
			execSelf.median(), missSelf.median(), httpSelf.median(), k.n)
	}

	// The live index's own answer, without the executor around it.
	var liveNS samples
	idx := off.Live()
	for i := range src {
		u, v := pair(i)
		liveNS = append(liveNS, timeUS(func() {
			for r := 0; r < 100; r++ {
				idx.Connected(u, v)
			}
		})*10) // 100 calls, us -> ns per call
	}
	l.set("dynconn.connected_ns", liveNS.median(), "ns", len(liveNS))

	// The same two kernels over the gap-compressed layout. snapserve has
	// no flag that selects a layout, so these exist on the ladder only.
	cstore, _ := l.freshStore(loads, snaps)
	cview := snapmgr.NewLayout(0, cstore, snapmgr.LayoutCompressed).View()
	ctrav, cres, csc := traversal.NewScratch(), &traversal.Result{}, sssp.NewStreamScratch()
	var cbfs, csssp samples
	for i := -1; i < len(src); i++ {
		one[0] = src[max(i, 0)]
		d := timeUS(func() { traversal.RunStream(cview.C, one, bfsOpt, ctrav, cres) })
		if i >= 0 {
			cbfs = append(cbfs, d)
		}
	}
	for i := -1; i < len(src)/4; i++ { // the streaming Bellman-Ford is slow: a quarter of the sources
		s := src[max(i, 0)]
		d := timeUS(func() { sssp.RunStream(cview.C, s, 1, sssp.LabelWeights, csc) })
		if i >= 0 {
			csssp = append(csssp, d)
		}
	}
	fmt.Fprintf(l.w, "   compressed layout: bfs %.1f us, sssp %.1f us; live index answer %.0f ns\n",
		l.us("kernel.bfs_compressed_us", cbfs), l.us("kernel.sssp_compressed_us", csssp), liveNS.median())
	return nil
}

func (l *ladder) writes(tmp string, loads, snaps *samples) error {
	// Rung 0: the bare tracked store. Rung 1: the same apply through the
	// manager's refresh gate. Rung 2: the live connectivity index.
	store0, _ := l.freshStore(loads, snaps)
	_, mgr := l.freshStore(loads, snaps)
	live := qserve.NewLive(l.in.n)
	live.SeedView(mgr.View())

	// Rung 3: the write-ahead log alone, one fsync per append.
	log, _, err := wal.Create(filepath.Join(tmp, "ladder-wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()

	// Rung 4: the durable store: batcher -> WAL -> gate -> apply -> ack.
	boot := stream.Mirror(stream.Inserts(l.in.edges))
	newStore := func(n int) dyngraph.Store { return dyngraph.NewHybrid(n, 4*len(l.in.edges), 0, l.in.seed) }
	dcfg := durable.Config{Dir: filepath.Join(tmp, "ladder-durable"), CheckpointEvery: defaultCkptEvery}
	d, _, err := durable.Open(l.in.n, 0, newStore, boot, dcfg)
	if err != nil {
		return err
	}

	// Rung 5: the engine's ingest (volatile, live index on), then the
	// same behind POST /ingest.
	direct, err := buildStack(l.in, stackConfig{cacheBytes: defaultCacheBytes})
	if err != nil {
		return err
	}
	defer direct.stop()
	served, err := buildStack(l.in, stackConfig{cacheBytes: defaultCacheBytes})
	if err != nil {
		return err
	}
	defer served.stop()
	ts := httptest.NewServer(served.srv.Handler())
	defer ts.Close()
	c := newConn()
	defer c.close()

	// One rung at a time over the whole batch list, each in its own
	// tight loop: a rung's number then depends on that layer alone, not
	// on what the other rungs left in the processor's caches.
	mirrored := make([][]edge.Update, len(l.churn))
	for i, b := range l.churn {
		mirrored[i] = stream.Mirror(b)
	}
	var failed error
	each := func(fn func(i int) error) samples {
		var s samples
		for i := range mirrored {
			s = append(s, timeUS(func() {
				if err := fn(i); err != nil && failed == nil {
					failed = err
				}
			}))
		}
		return s
	}
	apply := each(func(i int) error { store0.ApplyBatch(0, mirrored[i]); return nil })
	gated := each(func(i int) error {
		mgr.IngestEpoch(func(t *dyngraph.Tracked) { t.ApplyBatch(0, mirrored[i]) })
		return nil
	})
	liveApply := each(func(i int) error { live.Apply(mirrored[i]); return nil })
	appends := each(func(i int) error { _, err := log.Append(mirrored[i]); return err })
	durIngest := each(func(i int) error { _, err := d.Ingest(mirrored[i]); return err })
	engine := each(func(i int) error { _, err := direct.ingest(l.churn[i]); return err })
	var body bytes.Buffer
	posts := each(func(i int) error {
		encodeBatch(&body, l.churn[i])
		resp, err := c.client.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /ingest: status %d", resp.StatusCode)
		}
		return nil
	})
	if failed != nil {
		return failed
	}
	// Per client update (the batches' sizes differ by a few), and the
	// self times as per-batch differences to the rungs below.
	var applyPer, gatePer, livePer, batcherPer, httpPer samples
	for i, batch := range l.churn {
		n := float64(len(batch))
		applyPer = append(applyPer, apply[i]/n)
		gatePer = append(gatePer, (gated[i]-apply[i])/n)
		livePer = append(livePer, liveApply[i]/n)
		// What the durable path adds over its parts: the batcher's queue,
		// its flush timer and the ack hand-off.
		batcherPer = append(batcherPer, (durIngest[i]-appends[i]-gated[i])/n)
		httpPer = append(httpPer, (posts[i]-engine[i])/n)
	}
	wm := log.Metrics()

	// Refresh: after 200 unrefreshed batches most of the graph is dirty,
	// so the first refresh is the full-rebuild fallback; after it, timed
	// delta refreshes at the server's dirty threshold, which is a
	// sixteenth of the paper-scale graph (a smaller graph, the smoke
	// test's, never gets 4096 vertices dirty).
	full := timeUS(func() { mgr.Refresh(0) }) / 1e3
	dirtyTarget := min(refreshDirty, l.in.n/16)
	var delta samples
	cg := newChurnGen(l.in.scale, ladderBatch, l.in.seed+1)
	for r := 0; r < refreshRounds; r++ {
		for mgr.Staleness() < dirtyTarget {
			b := stream.Mirror(cg.next())
			mgr.IngestEpoch(func(t *dyngraph.Tracked) { t.ApplyBatch(0, b) })
		}
		delta = append(delta, timeUS(func() { mgr.Refresh(0) })/1e3)
	}

	// Recovery: drop the durable store without its closing checkpoint,
	// as a crash would, and open the directory again.
	d.Batcher().Stop()
	d.Log().Close()
	d2, info, err := durable.Open(l.in.n, 0, newStore, boot, dcfg)
	if err != nil {
		return fmt.Errorf("recovering the ladder's durable store: %w", err)
	}
	d2.Close()

	a := l.us("dyngraph.apply_us_per_update", applyPer)
	g := l.us("snapmgr.gate_self_us_per_update", gatePer)
	lv := l.us("dynconn.apply_us_per_update", livePer)
	bytesPer := float64(wm.Bytes) / float64(max(1, wm.AppendedUpdates))
	l.set("wal.append_ms", appends.median()/1e3, "ms", len(appends))
	l.set("wal.bytes_per_update", bytesPer, "B", int(wm.Appends))
	l.set("durable.ingest_ms", durIngest.median()/1e3, "ms", len(durIngest))
	bs := l.us("batcher.self_us_per_update", batcherPer)
	l.set("durable.recovery_s", info.Elapsed.Seconds(), "s", 1)
	l.set("durable.replayed_updates", float64(info.ReplayedUpdates), "count", 1)
	hs := l.us("qserve.ingest_http_self_us_per_update", httpPer)
	l.set("snapmgr.full_rebuild_ms", full, "ms", 1)
	l.set("snapmgr.refresh_delta_ms", delta.median(), "ms", len(delta))

	fmt.Fprintf(l.w, "   writes, %d batches of %d updates, median per batch; self = median of the per-batch difference to the rungs below\n", ladderBatches, ladderBatch)
	fmt.Fprintf(l.w, "   %-34s %10.3f ms  (%.3f us/update)\n", "Tracked.ApplyBatch", apply.median()/1e3, a)
	fmt.Fprintf(l.w, "   %-34s %10.3f ms  (gate self %.3f us/update)\n", "Manager.IngestEpoch", gated.median()/1e3, g)
	fmt.Fprintf(l.w, "   %-34s %10.3f ms  (%.3f us/update)\n", "Live.Apply", liveApply.median()/1e3, lv)
	fmt.Fprintf(l.w, "   %-34s %10.3f ms  (%.1f B/logged update; fsync cost is this sandbox's)\n", "wal.Log.Append", appends.median()/1e3, bytesPer)
	fmt.Fprintf(l.w, "   %-34s %10.3f ms  (batcher self %.3f us/update)\n", "durable.Store.Ingest", durIngest.median()/1e3, bs)
	fmt.Fprintf(l.w, "   %-34s %10.3f ms\n", "Engine.Ingest (volatile, live on)", engine.median()/1e3)
	fmt.Fprintf(l.w, "   %-34s %10.3f ms  (HTTP self %.3f us/update)\n", "POST /ingest", posts.median()/1e3, hs)
	fmt.Fprintf(l.w, "   refresh: delta at %d dirty %.2f ms (n=%d), full rebuild %.2f ms; recovery %.3f s replaying %d updates\n",
		dirtyTarget, delta.median(), len(delta), full, info.Elapsed.Seconds(), info.ReplayedUpdates)
	return nil
}

// fleet times the scatter-gather engine at one and two shards, cache
// off: P=1 against the single-store executor is the fleet's fixed cost,
// P=2 against P=1 the cost of a second shard.
func (l *ladder) fleet() {
	src := l.src[:ladderSources]
	ups := stream.Mirror(stream.Inserts(l.in.edges))
	for _, p := range []int{1, 2} {
		f := shard.New(l.in.n, shard.Config{Shards: p, ExpectedEdges: 4 * len(ups)})
		f.Ingest(0, ups)
		f.Refresh(0)
		ex := shard.NewExecutor(f, qserve.Config{Undirected: true})
		var bfs, sp, ing samples
		for i := -1; i < len(src); i++ {
			a := qserve.Args{A: uint64(src[max(i, 0)])}
			d := timeUS(func() { ex.Query(qserve.SpecBFS, a) })
			if i >= 0 {
				bfs = append(bfs, d)
			}
		}
		b := l.us(fmt.Sprintf("shard.bfs_us.p%d", p), bfs)
		if p == 1 {
			fmt.Fprintf(l.w, "   fleet P=1: bfs %.1f us\n", b)
			continue
		}
		for i := -1; i < len(src); i++ {
			a := qserve.Args{A: uint64(src[max(i, 0)])}
			d := timeUS(func() { ex.Query(qserve.SpecSSSP, a) })
			if i >= 0 {
				sp = append(sp, d)
			}
		}
		for i, batch := range l.churn {
			m := stream.Mirror(batch)
			ing = append(ing, timeUS(func() { ex.Ingest(0, m) })/float64(len(l.churn[i])))
		}
		fmt.Fprintf(l.w, "   fleet P=2: bfs %.1f us, sssp %.1f us, ingest %.3f us/update\n",
			b, l.us("shard.sssp_us.p2", sp), l.us("shard.ingest_us_per_update.p2", ing))
	}
}

// ladderSum is the read ladder's total for one kind: what a cache miss
// served over loopback costs when nothing else runs. Beside the
// workload's own p50 for the kind it shows how much of a loaded
// server's latency the rungs account for; the rest is contention.
func ladderSum(per map[string]metric, kind string) float64 {
	sum := 0.0
	for _, name := range []string{"kernel.us.", "qserve.exec_self_us.", "qcache.miss_self_us.", "qserve.http_self_us."} {
		sum += per[name+kind].Value
	}
	return sum
}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
