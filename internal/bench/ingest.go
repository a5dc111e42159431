package bench

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/durable"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/timing"
)

// FigIngest prices durability: sustained ingest MUPS through the
// direct gated apply (volatile baseline) versus through the
// group-commit WAL (every acknowledged batch framed, CRC'd, and
// fsynced before the ack), both under the same concurrent query load,
// followed by a measured crash recovery — reopen the log directory the
// WAL phase left behind and time checkpoint load + tail replay.
//
// Load shape per phase: `submitters` goroutines push fixed-size churn
// batches as fast as acks return while qworkers query workers run a
// BFS mix through the executor pool and the auto-refresher republishes
// snapshots by policy. The WAL phase reports the group-commit ratio
// (updates per fsync) alongside MUPS — that amortization is the whole
// design, so the figure records it.
//
// The recovery row reopens the directory exactly as snapserve -wal-dir
// would after a kill -9: checkpoint load plus replay of every record
// after it, reported as recovery wall-clock and replayed updates.
func FigIngest(cfg Config, qworkers int, perPoint time.Duration) *timing.Table {
	if qworkers <= 0 {
		qworkers = 2
	}
	if perPoint <= 0 {
		perPoint = time.Second
	}
	n := cfg.n()
	edges := cfg.generate()
	extraCfg := cfg
	extraCfg.Seed += 77
	extra := extraCfg.generate()
	ws := cfg.workers()
	iw := ws[len(ws)-1]
	const submitters = 4
	const batchSize = 1024

	t := &timing.Table{
		Title: "Ingest durability: group-commit WAL vs volatile gate, and crash recovery",
		Note: cfg.instanceNote() + fmt.Sprintf(
			" (undirected), %d submitters x %d-update batches, %d query workers, %s per phase",
			submitters, batchSize, qworkers, perPoint),
	}

	churn := churnBatches(extra, batchSize/2) // mirrored: /2 keeps batches at batchSize
	boot := stream.Mirror(stream.Inserts(edges))
	policy := snapmgr.Policy{
		MaxDirty: max(1, n/100),
		MaxAge:   50 * time.Millisecond,
		Poll:     2 * time.Millisecond,
		Workers:  iw,
	}

	// Phase 1: volatile baseline — the pre-WAL ingest path, applied
	// through the refresh gate with no persistence.
	{
		store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.Seed))
		store.ApplyBatch(iw, boot)
		mgr := snapmgr.New(iw, store)
		mgr.Start(policy)
		applied, elapsed := drive(mgr, qworkers, perPoint, func(b []edge.Update) error {
			mgr.IngestEpoch(func(s *dyngraph.Tracked) { s.ApplyBatch(iw, b) })
			return nil
		}, churn, submitters)
		mgr.Stop()
		t.Add(timing.Measurement{
			Label: "ingest-volatile",
			Param: fmt.Sprintf("mups=%.2f", float64(applied)/elapsed/1e6),
			Ops:   applied, Workers: submitters, Seconds: elapsed,
		})
	}

	// Phase 2: durable — same load through the group-commit batcher and
	// fsync-on-commit WAL.
	dir, err := os.MkdirTemp("", "snapdyn-ingest-bench-")
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	defer os.RemoveAll(dir)
	dcfg := durable.Config{
		Dir:             dir,
		CheckpointEvery: 1 << 22,
	}
	d, _, err := durable.Open(n, iw, func(n int) dyngraph.Store {
		return dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.Seed)
	}, boot, dcfg)
	if err != nil {
		panic(fmt.Sprintf("bench: durable open: %v", err))
	}
	d.Manager().Start(policy)
	applied, elapsed := drive(d.Manager(), qworkers, perPoint, func(b []edge.Update) error {
		_, err := d.Ingest(b)
		return err
	}, churn, submitters)
	met := d.Log().Metrics()
	perFsync := 0.0
	if met.Appends > 0 {
		perFsync = float64(met.AppendedUpdates) / float64(met.Appends)
	}
	// Crash shape: stop the pipeline without the final checkpoint, so
	// the reopen below replays a realistic log tail.
	d.Batcher().Stop()
	d.Manager().Stop()
	d.Log().Close()
	t.Add(timing.Measurement{
		Label: "ingest-wal",
		Param: fmt.Sprintf("mups=%.2f updates/fsync=%.0f fsyncs=%d", float64(applied)/elapsed/1e6,
			perFsync, met.Appends),
		Ops: applied, Workers: submitters, Seconds: elapsed,
	})

	// Phase 3: recovery — reopen the directory the WAL phase left.
	d2, info, err := durable.Open(n, iw, func(n int) dyngraph.Store {
		return dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.Seed)
	}, nil, dcfg)
	if err != nil {
		panic(fmt.Sprintf("bench: recovery: %v", err))
	}
	d2.Close()
	t.Add(timing.Measurement{
		Label: "recovery",
		Param: fmt.Sprintf("lsn=%d replayed=%d ckpt=%d", info.LSN, info.ReplayedUpdates, info.CheckpointLSN),
		Ops:   int64(info.ReplayedUpdates), Workers: 1, Seconds: info.Elapsed.Seconds(),
	})
	return t
}

// drive runs the mixed load: `submitters` ingest goroutines pushing
// churn batches through submit() and qworkers BFS workers through an
// executor over mgr, for perPoint. Returns acked updates and elapsed
// seconds.
func drive(mgr *snapmgr.Manager, qworkers int, perPoint time.Duration,
	submit func([]edge.Update) error, churn [][]edge.Update, submitters int) (int64, float64) {
	ex := qserve.New(mgr, qserve.Config{
		Workers:       1,
		MaxConcurrent: qworkers,
		MaxQueue:      1 << 20,
		Undirected:    true,
	})
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < qworkers; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			src := uint32(q)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ex.BFS(src % uint32(mgr.Store().NumVertices())); err != nil {
					panic(fmt.Sprintf("bench: query under ingest load: %v", err))
				}
				src = src*1664525 + 1013904223
			}
		}(q)
	}

	var applied atomic.Int64
	deadline := time.Now().Add(perPoint)
	var iwg sync.WaitGroup
	elapsed := timing.Time(func() {
		for s := 0; s < submitters; s++ {
			iwg.Add(1)
			go func(s int) {
				defer iwg.Done()
				for i := s; time.Now().Before(deadline); i++ {
					b := churn[i%len(churn)]
					if err := submit(b); err != nil {
						panic(fmt.Sprintf("bench: ingest failed: %v", err))
					}
					applied.Add(int64(len(b)))
				}
			}(s)
		}
		iwg.Wait()
	})
	close(stop)
	qwg.Wait()
	return applied.Load(), elapsed
}
