package main

import (
	"time"

	"snapdyn/internal/durable"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
	"snapdyn/internal/shard"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
)

// Serving defaults, copied from cmd/snapserve's flag defaults. The
// parity test compares a stack built here against the spawned binary.
const (
	defaultCacheBytes   = 64 << 20
	defaultRefreshDirty = 4096
	defaultRefreshAge   = 500 * time.Millisecond
	defaultCkptEvery    = 1 << 20
)

// stackConfig is the part of snapserve's configuration a workload can
// vary.
type stackConfig struct {
	shards     int    // > 1 serves the vertex-partitioned fleet
	walDir     string // non-empty makes ingest durable
	cacheBytes int64  // 0 disables the result cache
	refresher  bool   // start the background auto-refresher(s)
}

// stack is a serving stack assembled in this process from the same
// constructors, in the same order, as cmd/snapserve.buildStack.
type stack struct {
	eng     qserve.Engine
	srv     *qserve.Server
	single  *qserve.Executor // nil on the fleet
	fleet   *shard.Executor  // nil on the single store
	durable *durable.Store   // nil unless single-store durable
	stop    func() error
}

func buildStack(in *graphInput, cfg stackConfig) (*stack, error) {
	ups := stream.Mirror(stream.Inserts(in.edges))
	policy := snapmgr.Policy{MaxDirty: defaultRefreshDirty, MaxAge: defaultRefreshAge}
	qcfg := qserve.Config{Undirected: true, CacheBytes: cfg.cacheBytes}
	st := &stack{}

	switch {
	case cfg.shards > 1:
		scfg := shard.Config{Shards: cfg.shards, ExpectedEdges: 4 * len(ups)}
		fleet := shard.New(in.n, scfg)
		fleet.Ingest(0, ups)
		fleet.Refresh(0)
		if cfg.refresher {
			fleet.Start(policy)
		}
		st.fleet = shard.NewExecutor(fleet, qcfg)
		st.fleet.EnableLive()
		st.eng = st.fleet
		st.stop = func() error { fleet.Stop(); return nil }

	case cfg.walDir != "":
		newStore := func(n int) dyngraph.Store {
			return dyngraph.NewHybrid(n, 4*len(in.edges), 0, in.seed)
		}
		d, _, err := durable.Open(in.n, 0, newStore, ups,
			durable.Config{Dir: cfg.walDir, CheckpointEvery: defaultCkptEvery})
		if err != nil {
			return nil, err
		}
		if cfg.refresher {
			d.Manager().Start(policy)
		}
		st.single = qserve.New(d.Manager(), qcfg)
		st.single.SetIngest(d.Ingest)
		st.single.EnableLive()
		st.eng, st.durable, st.stop = st.single, d, d.Close

	default:
		store := dyngraph.NewTracked(dyngraph.NewHybrid(in.n, 4*len(in.edges), 0, in.seed))
		store.ApplyBatch(0, ups)
		mgr := snapmgr.New(0, store)
		if cfg.refresher {
			mgr.Start(policy)
		}
		st.single = qserve.New(mgr, qcfg)
		st.single.EnableLive()
		st.eng = st.single
		st.stop = func() error { mgr.Stop(); return nil }
	}
	st.srv = qserve.NewServer(st.eng, true, 0)
	return st, nil
}

// ingest applies one directed batch the way POST /ingest does:
// mirrored, through the engine's ingest path.
func (s *stack) ingest(batch []edge.Update) (uint64, error) {
	return s.eng.Ingest(0, stream.Mirror(batch))
}

// refresh publishes everything ingested so far (stacks built without
// a background refresher).
func (s *stack) refresh() {
	if s.fleet != nil {
		s.fleet.Fleet().Refresh(0)
		return
	}
	s.single.Manager().Refresh(0)
}
