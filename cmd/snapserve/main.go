// Command snapserve is the concurrent query daemon over the
// incremental snapshot pipeline: it ingests structural updates over
// HTTP while serving analysis queries from epoch-versioned immutable
// snapshots, with refresh decided by a background policy rather than a
// call site.
//
// The initial graph comes from an edge-list file (-graph, rmatgen or
// plain "u v [t]" format) or is generated in-process (-scale). Updates
// arrive as JSON batches on /ingest; a background auto-refresher
// republishes the snapshot whenever the dirty-vertex count crosses
// -refresh-dirty or the snapshot age crosses -refresh-age, checked
// every -refresh-age/8 from the last publication. Queries
// (BFS, delta-stepping SSSP, st-connectivity, connected components)
// run on a bounded executor pool with per-worker kernel scratch reused
// across requests; past -qmax executing and -queue waiting queries,
// requests are shed with 503 so latency stays bounded under overload.
// Results are memoized per snapshot in a -cache-bytes budgeted cache
// keyed by snapshot identity (0 disables): repeat queries between
// refreshes are served from the cached reply without touching kernel
// scratch, concurrent identical misses coalesce into one
// execution, and a republished snapshot invalidates by identity — the
// old generation dies with its snapshot, no scanning.
//
// With -wal-dir the ingest path becomes durable: submissions coalesce
// in a group-commit batcher, each flush is framed, CRC'd, and fsynced
// to a write-ahead log before it is applied and acknowledged, and the
// /ingest reply's epoch is the snapshot epoch guaranteed to contain
// the batch — pass it back as minEpoch on any query for
// read-your-writes (503 if the snapshot can't catch up in time). A
// minEpoch of the next epoch makes the refresher publish it at once; one
// that no ack can carry (beyond the next epoch of every shard) is
// answered 503 at once.
// Periodic checkpoints (-checkpoint-every) bound replay; on restart
// the daemon recovers checkpoint + log tail, truncating a torn final
// record, and continues with monotone epochs. SIGINT/SIGTERM drains
// in-flight requests, flushes the batcher, writes a final checkpoint,
// and closes the log.
//
// With -shards N (N > 1) the daemon serves a vertex-partitioned fleet
// instead of one store: N tracked stores each behind their own
// snapshot manager and auto-refresher, ingest batches routed to the
// owning shard's gate so they apply concurrently, and every query
// running scatter-gather across the shards' pinned snapshots — same
// endpoints, same wire format.
//
// With -live the daemon additionally maintains a dynamic spanning
// forest over the served store (one forest across the shards when
// sharded), reconciled synchronously by the ingest path, so
// /query/connected?u=N&v=M&live=1 answers from the update stream
// without waiting for the next snapshot refresh.
//
// Endpoints (every query kind in the registry is served at both
// /query/<kind>, flat legacy replies, and /v1/query/<kind>, typed
// envelope with kind, epoch, cache disposition, and structured error
// codes):
//
//	POST /ingest            JSON [{"u":1,"v":2,"t":3,"op":"insert"}, ...] (413 past 64 MiB)
//	GET  /query/bfs?src=N
//	GET  /query/sssp?src=N&delta=D
//	GET  /query/connected?u=N&v=M[&live=1]
//	GET  /query/components
//	GET  /query/clustering
//	GET  /query/khop?src=N&k=K
//	GET  /query/pagerank[?tol=T]
//	GET  /stats
//	GET  /healthz           epoch, staleness, refresh + admission metrics
//	POST /v1/jobs/betweenness[?samples=S&seed=R&topk=K]   offline job, 202 + id
//	GET  /v1/jobs/{id}      poll job progress/result
//
// Example:
//
//	snapserve -scale 16 -addr :8080 &
//	curl 'localhost:8080/query/bfs?src=0'
//	curl 'localhost:8080/v1/query/pagerank?tol=1e-8'
//	curl -X POST -d '[{"u":1,"v":2,"t":9}]' localhost:8080/ingest
//	curl localhost:8080/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snapdyn/internal/batcher"
	"snapdyn/internal/durable"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/graphio"
	"snapdyn/internal/qserve"
	"snapdyn/internal/rmat"
	"snapdyn/internal/shard"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// config collects everything the service needs to come up; flags parse
// into it, tests construct it directly.
type config struct {
	graphPath  string
	scale      int
	edgeFactor int
	timeMax    uint32
	seed       uint64
	undirected bool

	workers      int // ingest + refresh parallelism
	shards       int // vertex-partitioned shard workers (<= 1 = single store)
	queryWorkers int // kernel parallelism per query (single-shard engine)
	maxQueries   int // concurrent query slots
	maxQueue     int // waiting queries before shedding

	refreshDirty int
	refreshAge   time.Duration

	// live enables the between-refresh connectivity index: a dynamic
	// spanning forest fed by the ingest path, serving
	// /query/connected?...&live=1 from the update stream.
	live bool

	// cacheBytes budgets the per-snapshot result cache at
	// qcache.EntryBytes per cached reply (0 disables — every query
	// recomputes).
	cacheBytes int64

	// walDir enables the durable ingest path: group-commit WAL +
	// checkpoints under this directory (per-shard subdirectories when
	// sharded). Empty keeps the volatile direct-apply path.
	walDir       string
	ckptEvery    uint64
	batchPending int
}

func (c config) durableConfig() durable.Config {
	return durable.Config{
		Dir:             c.walDir,
		CheckpointEvery: c.ckptEvery,
		Batch:           batcher.Config{MaxPending: c.batchPending},
	}
}

// service is a fully assembled serving stack: tracked storage behind
// auto-refreshing snapshot management (one store, or a fleet of
// vertex-partitioned shards), the executor pool, and the HTTP handler.
type service struct {
	ex  qserve.Engine
	srv *qserve.Server
	// stop shuts the stack down in dependency order: batcher flush and
	// final checkpoint (durable path), auto-refresher(s), log close.
	stop func() error
	// recovery describes what the durable path restored, for the
	// startup banner ("" when volatile or fresh).
	recovery string
}

// buildStack loads or generates the graph, builds the manager (or
// shard fleet) and executor, and starts the auto-refresher(s).
func buildStack(cfg config) (*service, error) {
	var edges []edge.Edge
	var n int
	if cfg.graphPath != "" {
		f, err := os.Open(cfg.graphPath)
		if err != nil {
			return nil, err
		}
		edges, n, err = graphio.Detect(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", cfg.graphPath, err)
		}
	} else {
		n = 1 << cfg.scale
		var err error
		edges, err = rmat.Generate(0, rmat.PaperParams(cfg.scale, cfg.edgeFactor*n, cfg.timeMax, cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("generating R-MAT graph: %w", err)
		}
	}

	ups := stream.Inserts(edges)
	if cfg.undirected {
		ups = stream.Mirror(ups)
	}
	policy := snapmgr.Policy{
		MaxDirty: cfg.refreshDirty,
		MaxAge:   cfg.refreshAge,
		Workers:  cfg.workers,
	}
	qcfg := qserve.Config{
		Workers:       cfg.queryWorkers,
		MaxConcurrent: cfg.maxQueries,
		MaxQueue:      cfg.maxQueue,
		Undirected:    cfg.undirected,
		CacheBytes:    cfg.cacheBytes,
	}

	scfg := shard.Config{
		Shards:        cfg.shards,
		Workers:       cfg.workers,
		ExpectedEdges: 4 * len(ups),
	}

	if cfg.shards > 1 && cfg.walDir != "" {
		// Durable fleet: one WAL + checkpoint directory per shard,
		// ingest scattered into per-shard group commits.
		df, infos, err := shard.OpenDurable(n, scfg, ups, cfg.durableConfig())
		if err != nil {
			return nil, err
		}
		df.Start(policy)
		ex := shard.NewExecutor(df.Fleet, qcfg)
		ex.SetIngest(df.Ingest)
		if cfg.live {
			ex.EnableLive()
		}
		var rec string
		for s, info := range infos {
			if info.Recovered {
				rec += fmt.Sprintf("shard %d: recovered LSN %d (ckpt %d, %d replayed) in %v; ",
					s, info.LSN, info.CheckpointLSN, info.ReplayedUpdates, info.Elapsed.Round(time.Millisecond))
			}
		}
		return &service{
			ex:       ex,
			srv:      qserve.NewServer(ex, cfg.undirected, cfg.workers),
			stop:     df.Close, // flushes batchers, stops refreshers, final checkpoints
			recovery: rec,
		}, nil
	}

	if cfg.shards > 1 {
		// Fleet path: one tracked store + manager + auto-refresher per
		// shard, ingest routed by vertex owner, queries scatter-gather.
		fleet := shard.New(n, scfg)
		fleet.Ingest(cfg.workers, ups)
		fleet.Refresh(cfg.workers)
		fleet.Start(policy)
		ex := shard.NewExecutor(fleet, qcfg)
		if cfg.live {
			ex.EnableLive()
		}
		return &service{
			ex:   ex,
			srv:  qserve.NewServer(ex, cfg.undirected, cfg.workers),
			stop: func() error { fleet.Stop(); return nil },
		}, nil
	}

	if cfg.walDir != "" {
		// Durable single store: bootstrap seeds a fresh directory (and
		// is checkpointed); a recovered directory wins over bootstrap.
		newStore := func(n int) dyngraph.Store {
			return dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.seed)
		}
		d, info, err := durable.Open(n, cfg.workers, newStore, ups, cfg.durableConfig())
		if err != nil {
			return nil, err
		}
		d.Manager().Start(policy)
		ex := qserve.New(d.Manager(), qcfg)
		ex.SetIngest(d.Ingest)
		if cfg.live {
			ex.EnableLive()
		}
		var rec string
		if info.Recovered {
			rec = fmt.Sprintf("recovered LSN %d (ckpt %d, %d replayed, torn=%v) in %v",
				info.LSN, info.CheckpointLSN, info.ReplayedUpdates, info.Torn,
				info.Elapsed.Round(time.Millisecond))
		}
		return &service{
			ex:       ex,
			srv:      qserve.NewServer(ex, cfg.undirected, cfg.workers),
			stop:     d.Close, // flushes batcher, stops refresher, final checkpoint
			recovery: rec,
		}, nil
	}

	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 4*len(edges), 0, cfg.seed))
	store.ApplyBatch(cfg.workers, ups)
	mgr := snapmgr.New(cfg.workers, store)
	mgr.Start(policy)
	ex := qserve.New(mgr, qcfg)
	if cfg.live {
		ex.EnableLive()
	}
	return &service{
		ex:   ex,
		srv:  qserve.NewServer(ex, cfg.undirected, cfg.workers),
		stop: func() error { mgr.Stop(); return nil },
	}, nil
}

// close drains the stack: on the durable path this resolves every
// outstanding ack, writes a final checkpoint, and closes the log(s).
func (s *service) close() error { return s.stop() }

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		graphPath  = flag.String("graph", "", "edge list file (rmatgen or 'u v [t]' lines); empty generates R-MAT")
		scale      = flag.Int("scale", 14, "R-MAT scale when generating (n = 2^scale)")
		edgeFactor = flag.Int("edgefactor", 8, "edges per vertex when generating")
		timeMax    = flag.Uint("tmax", 100, "max time label when generating")
		seed       = flag.Uint64("seed", 20090525, "random seed")
		undirected = flag.Bool("undirected", true, "maintain mirror arcs (enables direction-optimizing queries)")
		workers    = flag.Int("workers", 0, "ingest/refresh parallelism (0 = GOMAXPROCS)")
		shards     = flag.Int("shards", 1, "vertex-partitioned shard workers; >1 serves a scatter-gather fleet")
		qworkers   = flag.Int("qworkers", 1, "kernel parallelism per query")
		qmax       = flag.Int("qmax", 0, "max concurrent queries (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "max waiting queries before shedding (0 = 2*qmax)")
		cacheB     = flag.Int64("cache-bytes", 64<<20, "per-snapshot result-cache budget in bytes (0 disables caching)")
		refDirty   = flag.Int("refresh-dirty", 4096, "auto-refresh when this many vertices are dirty")
		refAge     = flag.Duration("refresh-age", 500*time.Millisecond, "auto-refresh when the snapshot is this stale with updates pending")
		live       = flag.Bool("live", false, "maintain a live connectivity forest on the ingest path (serves connected?live=1)")
		walDir     = flag.String("wal-dir", "", "durable ingest: WAL + checkpoint directory (per-shard subdirs when sharded); empty = volatile")
		ckptEvery  = flag.Uint64("checkpoint-every", 1<<20, "checkpoint after this many committed updates per log (0 = only on clean shutdown)")
		batchPend  = flag.Int("batch-pending", 0, "max pending updates before ingest backpressure (0 = default)")
	)
	flag.Parse()

	svc, err := buildStack(config{
		graphPath:    *graphPath,
		scale:        *scale,
		edgeFactor:   *edgeFactor,
		timeMax:      uint32(*timeMax),
		seed:         *seed,
		undirected:   *undirected,
		workers:      *workers,
		shards:       *shards,
		queryWorkers: *qworkers,
		maxQueries:   *qmax,
		maxQueue:     *queue,
		refreshDirty: *refDirty,
		refreshAge:   *refAge,
		live:         *live,
		cacheBytes:   *cacheB,
		walDir:       *walDir,
		ckptEvery:    *ckptEvery,
		batchPending: *batchPend,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapserve: %v\n", err)
		os.Exit(2)
	}

	if svc.recovery != "" {
		fmt.Printf("snapserve: %s\n", svc.recovery)
	}
	st := svc.ex.Stats()
	fmt.Printf("snapserve: serving %d vertices, %d arcs on %s (epoch %d)\n",
		st.Vertices, st.Arcs, *addr, st.Epoch)

	os.Exit(run(svc, *addr))
}

// run serves until SIGINT/SIGTERM, then shuts down in order: stop
// accepting connections and drain in-flight requests, then close the
// service (flush the group-commit batcher, resolve outstanding acks,
// final checkpoint, close the WAL). A second signal aborts the drain.
func run(svc *service, addr string) int {
	srv := &http.Server{
		Addr:              addr,
		Handler:           svc.srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		// Listener died on its own; still drain the durable stack so
		// acked updates get their final checkpoint.
		svc.close()
		fmt.Fprintf(os.Stderr, "snapserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "snapserve: shutting down")
	cancel() // restore default signal behavior: a second signal kills us
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "snapserve: drain: %v\n", err)
	}
	if err := svc.close(); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "snapserve: close: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "snapserve: clean shutdown")
	return 0
}
