package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind a
// latency statistic (0 where the metric is not a sample statistic);
// Thin marks a percentile with fewer than ten samples beyond it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Thin  bool    `json:"thin,omitempty"`
}

// tail is the p-th percentile of an ascending latency sample in ms.
func tail(sorted []float64, p float64) metric {
	return metric{Value: percentile(sorted, p), Unit: "ms", N: len(sorted),
		Thin: len(sorted) > 0 && !supported(len(sorted), p)}
}

// runConfig is what one workload run needs besides its definition.
type runConfig struct {
	bin    string // snapserve binary
	tmp    string // scratch directory for WAL dirs
	in     *graphInput
	seed   uint64
	warmup time.Duration
	window time.Duration
	setups int // server start-ups timed for setup_s (the last one serves)
}

// workloadResult is one workload's outcome: the end-to-end metrics,
// the per-layer metrics scraped from outside the server, and the
// failure accounting.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

func queryConns() int {
	return max(1, runtime.NumCPU()-1)
}

func (def *workloadDef) serverFlags(walDir string) []string {
	var f []string
	if def.shards > 1 {
		f = append(f, "-shards", fmt.Sprint(def.shards))
	}
	if def.wal {
		f = append(f, "-wal-dir", walDir)
	}
	return f
}

func runWorkload(def *workloadDef, cfg runConfig) (*workloadResult, error) {
	walDir := func(i int) string { return filepath.Join(cfg.tmp, fmt.Sprintf("%s-wal-%d", def.name, i)) }

	// Set-up, several times over: a single start-up time is too noisy
	// to gate on. Every start gets a fresh WAL directory so each one
	// pays the bootstrap checkpoint.
	var setups []float64
	var srv *server
	for i := 0; i < cfg.setups; i++ {
		s, err := startServer(cfg.bin, cfg.in, def.serverFlags(walDir(i))...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i < cfg.setups-1 {
			s.kill()
			os.RemoveAll(walDir(i))
			continue
		}
		srv = s
	}
	defer func() { srv.kill() }()
	defer os.RemoveAll(walDir(cfg.setups - 1))

	scraper := &http.Client{Timeout: 10 * time.Second}
	defer scraper.CloseIdleConnections()
	var atStart, atEnd scrape
	var scrapeErr error
	d := &driver{def: def, base: srv.base, in: cfg.in, seed: cfg.seed,
		warmup: cfg.warmup, window: cfg.window, conns: queryConns()}
	stopRSS, rssOut := make(chan struct{}), make(chan []float64, 1)
	res := d.run(func(start bool) {
		sc, err := srv.scrape(scraper)
		if err != nil {
			scrapeErr = err
		}
		if start {
			atStart = sc
			go srv.sampleRSS(stopRSS, rssOut)
		} else {
			atEnd = sc
			close(stopRSS)
		}
	})
	rss := <-rssOut
	if scrapeErr != nil {
		return nil, fmt.Errorf("scraping %s: %w", def.name, scrapeErr)
	}

	// Quiesce, then the correctness gate.
	if err := srv.quiesce(scraper); err != nil {
		return nil, err
	}
	quiet, err := srv.scrape(scraper)
	if err != nil {
		return nil, err
	}
	or, err := buildOracle(cfg.in, res.batches)
	if err != nil {
		return nil, fmt.Errorf("building oracle: %w", err)
	}
	defer or.st.stop()
	gateAttempts := 1
	if want := or.st.eng.Stats().Arcs; quiet.stats.Arcs != want {
		res.failf("at quiesce the server holds %d arcs, the oracle %d", quiet.stats.Arcs, want)
	}
	restartS := 0.0
	if def.wal {
		// Crash and recover: every acknowledged update must be served
		// by the restarted process.
		srv.kill()
		s, err := startServer(cfg.bin, cfg.in, def.serverFlags(walDir(cfg.setups-1))...)
		if err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		srv = s
		restartS = s.setup.Seconds()
		gateAttempts++
		var after scrape
		if after, err = srv.scrape(scraper); err != nil {
			return nil, err
		}
		if want := or.st.eng.Stats().Arcs; after.stats.Arcs != want {
			res.failf("after kill -9 the server recovered %d arcs, acknowledged state has %d", after.stats.Arcs, want)
		}
	}
	gateAttempts += gate(srv.base, def.shards > 1, or, cfg.in, cfg.seed, res)

	return summarize(def, res, observed{setups: setups, restartS: restartS, atStart: atStart, atEnd: atEnd,
		quiet: quiet, rss: rss, gateAttempts: gateAttempts}), nil
}

// observed is what runWorkload saw from outside the traffic: the
// start-ups, the scrapes at the window's edges and at quiesce, the
// resident-set samples and the gate's size.
type observed struct {
	setups                []float64 // seconds
	restartS              float64   // after kill -9; 0 without a WAL
	atStart, atEnd, quiet scrape
	rss                   []float64 // MiB
	gateAttempts          int
}

// summarize turns the raw records into named metrics.
func summarize(def *workloadDef, res *driveResult, o observed) *workloadResult {
	setups, atStart, atEnd, quiet := o.setups, o.atStart, o.atEnd, o.quiet
	w := res.window.Seconds()
	out := &workloadResult{Name: def.name, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}

	var shed, stale, hits, cacheable int
	var okAt, pointAt, pointMs []float64
	perKind := make([][]float64, len(registryMix))
	for _, r := range res.queries {
		if r.code != http.StatusOK {
			if r.code == http.StatusServiceUnavailable {
				shed++ // queries carry no minEpoch, so a 503 here is a shed
			}
			continue
		}
		okAt = append(okAt, r.at)
		perKind[r.kind] = append(perKind[r.kind], r.ms)
		if registryMix[r.kind].point {
			pointAt = append(pointAt, r.at)
			pointMs = append(pointMs, r.ms)
		}
		if r.disp == cacheHit || r.disp == cacheMiss {
			cacheable++
			if r.disp == cacheHit {
				hits++
			}
		}
	}
	ok2xx := len(okAt)
	var ackMs []float64
	for _, r := range res.acks {
		if r.code == http.StatusOK {
			ackMs = append(ackMs, r.ms)
		}
	}
	stale = res.probesSent - len(res.visible)
	out.Failures = res.failures
	out.Failed = res.failed
	out.Attempted = len(res.queries) + len(res.acks) + res.probesSent + o.gateAttempts
	out.Correct = out.Failed == 0

	sortedPoint := sortedCopy(pointMs)
	sort.Float64s(ackMs)
	sortedVisible := sortedCopy(res.visible)
	late := sortedCopy(res.lateMs)

	e := out.EndToEnd
	e["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}
	e["query_qps_fast"] = metric{Value: fastRate(okAt, w), Unit: "1/s", N: ok2xx}
	for _, pc := range []float64{50, 90} {
		// Thin when the average slice is.
		e[fmt.Sprintf("point_p%g_fast_ms", pc)] = metric{Value: fastPercentile(pointAt, pointMs, w, pc), Unit: "ms",
			N: len(pointMs), Thin: !supported(len(pointMs)/windowSlices, pc)}
	}
	e["ingest_mups"] = metric{Value: float64(res.updates) / w / 1e6, Unit: "Mupd/s", N: len(ackMs)}
	e["rss_mb"] = metric{Value: mean(o.rss), Unit: "MiB", N: len(o.rss)}
	if quiet.stats.Arcs > 0 {
		e["snapshot_bytes_per_arc"] = metric{Value: float64(quiet.stats.SizeBytes) / float64(quiet.stats.Arcs), Unit: "B"}
	}

	p := out.PerLayer
	count := func(name string, v float64) { p[name] = metric{Value: v, Unit: "count"} }
	count("workload.ops_attempted", float64(out.Attempted))
	count("workload.ops_failed", float64(out.Failed))
	count("workload.shed_503", float64(shed))
	count("workload.stale_503", float64(stale))
	p["workload.fail_share"] = metric{Value: ratio(out.Failed, out.Attempted), Unit: "ratio"}
	p["workload.hit_share"] = metric{Value: ratio(hits, cacheable), Unit: "ratio", N: cacheable}
	p["workload.query_qps"] = metric{Value: float64(ok2xx) / w, Unit: "1/s", N: ok2xx}
	p["workload.point_p50_ms"] = tail(sortedPoint, 50)
	p["workload.point_p90_ms"] = tail(sortedPoint, 90)
	p["workload.point_p95_ms"] = tail(sortedPoint, 95)
	p["workload.point_p99_ms"] = tail(sortedPoint, 99)
	p["workload.ack_p50_ms"] = tail(ackMs, 50)
	p["workload.ack_p95_ms"] = tail(ackMs, 95)
	p["workload.ack_p99_ms"] = tail(ackMs, 99)
	p["workload.visible_p50_ms"] = tail(sortedVisible, 50)
	p["workload.ingest_late_p95_ms"] = tail(late, 95)
	for i, k := range registryMix {
		sort.Float64s(perKind[i])
		p["workload.p50_ms."+k.name] = tail(perKind[i], 50)
	}
	p["workload.restart_s"] = metric{Value: o.restartS, Unit: "s"}

	dh := atEnd.stats.CacheHits - atStart.stats.CacheHits
	dm := atEnd.stats.CacheMisses - atStart.stats.CacheMisses
	count("qserve.served", float64(atEnd.health.Counters.Served-atStart.health.Counters.Served))
	count("qserve.shed", float64(atEnd.health.Counters.Shed-atStart.health.Counters.Shed))
	p["qcache.hit_ratio"] = metric{Value: ratio(int(dh), int(dh+dm)), Unit: "ratio", N: int(dh + dm)}
	count("qcache.coalesced", float64(atEnd.stats.Coalesced-atStart.stats.Coalesced))
	count("qcache.evictions", float64(atEnd.stats.CacheEvictions-atStart.stats.CacheEvictions))
	p["qcache.bytes_end"] = metric{Value: float64(atEnd.stats.CacheBytes), Unit: "B"}
	count("snapmgr.refreshes", float64(atEnd.health.Refreshes-atStart.health.Refreshes))
	p["snapmgr.refresh_max_ms"] = metric{Value: atEnd.health.MaxRefreshMs, Unit: "ms"}
	count("snapmgr.staleness_end", float64(atEnd.health.Staleness))
	p["proc.peak_rss_mb"] = metric{Value: atEnd.hwmMiB, Unit: "MiB"}
	cpu := atEnd.cpuS - atStart.cpuS
	p["proc.cpu_s"] = metric{Value: cpu, Unit: "s"}
	p["proc.cpu_ms_per_op"] = metric{Value: cpu * 1e3 / float64(max(1, ok2xx+len(ackMs))), Unit: "ms"}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
