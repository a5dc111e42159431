// Package durable assembles the crash-safe ingest path: a group-commit
// batcher (internal/batcher) in front of a write-ahead log
// (internal/wal) in front of the gated snapshot manager
// (internal/snapmgr). One Store owns one log directory and one tracked
// store; a sharded deployment runs one Store per shard
// (internal/shard.OpenDurable).
//
// The durability contract, end to end:
//
//   - A submission's Ack resolves only after its containing batch has
//     been framed, written, and fsynced to the WAL *and* applied to the
//     live store. The ack carries the snapshot epoch that is guaranteed
//     to contain the batch: wait for Manager().WaitEpoch(ack epoch) and
//     every query after that observes the writes (read-your-writes).
//     That wait demands the epoch, so a running auto-refresher
//     publishes it at once rather than at its next trigger check; the
//     commit path itself never asks for a refresh.
//   - After a crash at any point — mid-record, mid-fsync, mid-checkpoint
//     — Open rebuilds exactly a prefix of the committed update sequence
//     that includes every acknowledged batch. Unacknowledged batches at
//     the crash horizon may or may not survive (they were in flight);
//     nothing else can differ.
//   - Epochs stay monotone across restarts: Open re-bases the new
//     manager's epoch counter above anything a pre-crash client can
//     hold, so a stale ack epoch never falsely reads as published.
//
// Checkpoints bound replay: every CheckpointEvery committed updates the
// flusher dumps the live graph through internal/graphio into the log
// directory and prunes the segments it covers. Checkpointing is an
// optimization, never a correctness requirement — a failed checkpoint
// only means longer replay.
package durable

import (
	"fmt"
	"time"

	"snapdyn/internal/batcher"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/wal"
)

// Config configures a durable store. Dir is required; the rest defaults.
type Config struct {
	// Dir is the WAL + checkpoint directory, created if missing.
	Dir string
	// CheckpointEvery cuts a checkpoint after this many committed
	// updates (0 disables periodic checkpoints; a final one is still
	// written on clean Close).
	CheckpointEvery uint64
	// Batch tunes the group-commit batcher.
	Batch batcher.Config
	// WAL tunes segment rotation and carries the fault-injection file
	// hooks in tests.
	WAL wal.Options
	// Hook, when non-nil, is called at commit-path stages
	// ("pre-append", "post-append", "post-apply") so crash tests can
	// kill the fault model at exactly the awkward moments.
	Hook func(stage string)
}

// Info describes what Open restored, for logs and the bench harness.
type Info struct {
	// Recovered reports that a previous life's state was found (a
	// checkpoint, replayable records, or both).
	Recovered bool
	// LSN is the update count restored; the store reflects exactly the
	// first LSN committed updates of the previous life.
	LSN uint64
	// CheckpointLSN is the coverage of the checkpoint used (0 if none);
	// ReplayedBatches/ReplayedUpdates count the log tail replayed on
	// top of it.
	CheckpointLSN   uint64
	ReplayedBatches int
	ReplayedUpdates int
	// Torn reports that a partially persisted final record was found
	// and truncated — the expected crash shape.
	Torn bool
	// Elapsed is the wall-clock recovery time: log scan, replay, and
	// initial materialization.
	Elapsed time.Duration
}

// Store is the durable ingest facade over one tracked store.
type Store struct {
	n       int
	workers int
	mgr     *snapmgr.Manager
	log     *wal.Log
	bat     *batcher.Batcher
	hook    func(string)

	ckptEvery uint64
	sinceCkpt uint64 // flusher-goroutine only
}

// Open recovers (or initializes) the log directory, rebuilds the store,
// and starts the group-commit batcher. newStore builds the backing
// representation over n vertices (nil means the hybrid default);
// bootstrap seeds a *fresh* directory with initial insertions, applied
// and then protected by a seed checkpoint — on a recovered directory it
// is ignored (the durable state wins).
func Open(n, workers int, newStore func(n int) dyngraph.Store, bootstrap []edge.Update, cfg Config) (*Store, *Info, error) {
	start := time.Now()
	log, rec, err := wal.Create(cfg.Dir, cfg.WAL)
	if err != nil {
		return nil, nil, err
	}
	if rec.Checkpoint != nil && rec.Checkpoint.N != n {
		log.Close()
		return nil, nil, fmt.Errorf("durable: checkpoint in %s covers %d vertices, store has %d",
			cfg.Dir, rec.Checkpoint.N, n)
	}
	if newStore == nil {
		newStore = func(n int) dyngraph.Store { return dyngraph.NewHybrid(n, 8*n, 0, 1) }
	}
	st := dyngraph.NewTracked(newStore(n))

	recovered := rec.Checkpoint != nil || rec.LSN > 0
	if rec.Checkpoint != nil {
		// One semi-sorted batch: each vertex's arcs go back in dump
		// order (the order the store enumerated them in), which the
		// next update on a duplicated neighbor can depend on.
		st.ApplyBatch(workers, stream.Inserts(rec.Checkpoint.Edges))
	}
	for _, b := range rec.Batches {
		// Replay batch-by-batch in commit order: ApplyBatch preserves
		// per-vertex order within a batch, so the rebuilt multiset
		// matches the original application exactly.
		st.ApplyBatch(workers, b)
	}
	if !recovered && len(bootstrap) > 0 {
		st.ApplyBatch(workers, bootstrap)
	}

	mgr := snapmgr.New(workers, st)
	if recovered {
		// Re-base epochs above anything a pre-crash client can hold: a
		// batch's ack epoch is at most the checkpoint's epoch plus one
		// per replayed batch; +1 absorbs the publication race at the
		// checkpoint cut. Overshooting only skips epoch numbers.
		var ckptEpoch uint64
		if rec.Checkpoint != nil {
			ckptEpoch = rec.Checkpoint.Epoch
		}
		mgr.SetEpochBase(ckptEpoch + uint64(len(rec.Batches)) + 1)
	}

	d := &Store{
		n:         n,
		workers:   workers,
		mgr:       mgr,
		log:       log,
		hook:      cfg.Hook,
		ckptEvery: cfg.CheckpointEvery,
	}
	if d.hook == nil {
		d.hook = func(string) {}
	}
	if !recovered && len(bootstrap) > 0 {
		// Seed checkpoint: the bootstrap graph never went through the
		// WAL, so it must be durable before any ack is issued on top.
		if err := d.checkpoint(); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("durable: seeding checkpoint: %w", err)
		}
	}
	d.bat = batcher.New(cfg.Batch, d.commit)

	return d, &Info{
		Recovered:       recovered,
		LSN:             rec.LSN,
		CheckpointLSN:   rec.CheckpointLSN(),
		ReplayedBatches: len(rec.Batches),
		ReplayedUpdates: rec.Updates(),
		Torn:            rec.Torn,
		Elapsed:         time.Since(start),
	}, nil
}

// Manager returns the snapshot manager over the recovered store, for
// query serving, auto-refresh policy, and epoch waits.
func (d *Store) Manager() *snapmgr.Manager { return d.mgr }

// Log returns the write-ahead log, for metrics.
func (d *Store) Log() *wal.Log { return d.log }

// Batcher returns the group-commit batcher, for metrics.
func (d *Store) Batcher() *batcher.Batcher { return d.bat }

// Submit queues updates for the next group commit, blocking when the
// pending queue is full. The Ack resolves once the batch is fsynced
// and applied, carrying the epoch that will contain it.
func (d *Store) Submit(updates []edge.Update) (*batcher.Ack, error) {
	return d.bat.Submit(updates)
}

// TrySubmit is Submit shedding with batcher.ErrFull instead of
// blocking.
func (d *Store) TrySubmit(updates []edge.Update) (*batcher.Ack, error) {
	return d.bat.TrySubmit(updates)
}

// Ingest submits and waits: the synchronous durable ingest call,
// returning the ack epoch. It returns only after the updates are on
// disk and applied. An empty submission commits nothing, so its ack
// epoch is the current one, as on the volatile path.
func (d *Store) Ingest(updates []edge.Update) (uint64, error) {
	a, err := d.Submit(updates)
	if err != nil {
		return 0, err
	}
	if len(updates) == 0 {
		return d.mgr.Epoch(), nil
	}
	return a.Epoch(), a.Err()
}

// commit is the batcher's CommitFunc: WAL first, then the gated apply,
// in that order — an ack therefore implies both. It runs serially on
// the flusher goroutine.
func (d *Store) commit(batch []edge.Update) (uint64, error) {
	d.hook("pre-append")
	if _, err := d.log.Append(batch); err != nil {
		return 0, err
	}
	d.hook("post-append")
	epoch := d.mgr.IngestEpoch(func(t *dyngraph.Tracked) { t.ApplyBatch(d.workers, batch) })
	d.hook("post-apply")
	d.sinceCkpt += uint64(len(batch))
	if d.ckptEvery > 0 && d.sinceCkpt >= d.ckptEvery {
		// Best-effort: a failed checkpoint is counted in the log's
		// metrics and retried after the next CheckpointEvery updates;
		// the WAL still covers everything.
		d.checkpoint()
		d.sinceCkpt = 0
	}
	return epoch, nil
}

// checkpoint dumps the live graph and installs it as a checkpoint at
// the log's current LSN. Called from the flusher (or before/after its
// lifetime), so no apply runs concurrently and the dump is exact.
func (d *Store) checkpoint() error {
	return d.log.Checkpoint(Dump(d.mgr.Store()), d.mgr.Epoch()+1, d.n)
}

// Close flushes the batcher (resolving every outstanding ack), stops
// the auto-refresher if one is running, writes a final checkpoint for
// fast restart, and closes the log. The first error from the log is
// returned; a failed final checkpoint is not an error (the WAL covers
// the state).
func (d *Store) Close() error {
	if d.bat != nil {
		d.bat.Stop()
	}
	d.mgr.Stop()
	d.checkpoint() // best-effort
	return d.log.Close()
}

// Dump enumerates every live arc of a store — the checkpoint payload.
// The caller must ensure no mutations run concurrently.
func Dump(s dyngraph.Store) []edge.Edge {
	out := make([]edge.Edge, 0, s.NumEdges())
	n := s.NumVertices()
	for u := 0; u < n; u++ {
		s.Neighbors(edge.ID(u), func(v edge.ID, t uint32) bool {
			out = append(out, edge.Edge{U: uint32(u), V: v, T: t})
			return true
		})
	}
	return out
}
