package durable

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"snapdyn/internal/batcher"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/wal"
)

const testN = 64

// randUpdates builds a random mixed insert/delete batch over testN
// vertices; small T range so deletes sometimes hit existing tuples.
func randUpdates(rng *rand.Rand, n int) []edge.Update {
	out := make([]edge.Update, n)
	for i := range out {
		op := edge.Insert
		if rng.Intn(4) == 0 {
			op = edge.Delete
		}
		out[i] = edge.Update{Op: op, Edge: edge.Edge{
			U: uint32(rng.Intn(testN)),
			V: uint32(rng.Intn(testN)),
			T: uint32(rng.Intn(4)),
		}}
	}
	return out
}

// replayOracle applies the same update prefix to a fresh store of the
// same type and returns its sorted arc multiset — the never-crashed
// reference. Store state depends only on the per-vertex op sequence,
// so batch grouping is irrelevant.
func replayOracle(t *testing.T, batches ...[]edge.Update) []edge.Edge {
	t.Helper()
	st := dyngraph.NewTracked(dyngraph.NewHybrid(testN, 8*testN, 0, 1))
	for _, b := range batches {
		st.ApplyBatch(2, b)
	}
	return sortedDump(st)
}

func sortedDump(s dyngraph.Store) []edge.Edge {
	out := Dump(s)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.U != b.U {
			return a.U < b.U
		}
		if a.V != b.V {
			return a.V < b.V
		}
		return a.T < b.T
	})
	return out
}

func sameArcs(t *testing.T, got, want []edge.Edge, msg string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arcs, want %d", msg, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arc %d: %v != %v", msg, i, got[i], want[i])
		}
	}
}

func TestBootstrapCleanRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	boot := randUpdates(rng, 100)
	cfg := Config{Dir: dir}

	d, info, err := Open(testN, 2, nil, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh directory reported recovered")
	}
	b1 := randUpdates(rng, 40)
	e1, err := d.Ingest(b1)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == 0 {
		t.Fatal("zero ack epoch")
	}
	want := replayOracle(t, boot, b1)
	sameArcs(t, sortedDump(d.Manager().Store()), want, "pre-close")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean restart: the final checkpoint carries everything.
	d2, info2, err := Open(testN, 2, nil, boot, cfg) // bootstrap must be ignored
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !info2.Recovered {
		t.Fatal("restart did not recover")
	}
	sameArcs(t, sortedDump(d2.Manager().Store()), want, "post-restart")
	// Epochs stay monotone across the restart.
	e2, err := d2.Ingest(randUpdates(rng, 10))
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("post-restart ack epoch %d not above pre-restart %d", e2, e1)
	}
}

func TestReadYourWrites(t *testing.T) {
	d, _, err := Open(testN, 2, nil, nil, Config{
		Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mgr := d.Manager()
	if !mgr.Start(snapmgr.Policy{MaxDirty: 1, Poll: time.Millisecond, Workers: 2}) {
		t.Fatal("refresher did not start")
	}

	a, err := d.Submit([]edge.Update{{Op: edge.Insert, Edge: edge.Edge{U: 7, V: 9, T: 42}}})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := a.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.WaitEpoch(epoch, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	adj, ts := mgr.Current().Neighbors(7)
	for i, v := range adj {
		if v == 9 && ts[i] == 42 {
			return
		}
	}
	t.Fatal("acked arc not visible at the ack epoch: read-your-writes broken")
}

// TestIngestEmptyReturnsCurrentEpoch: an empty batch commits nothing,
// so its ack is the current published epoch, as on the volatile path;
// an ack of 0 would read as older than any snapshot a client has seen.
func TestIngestEmptyReturnsCurrentEpoch(t *testing.T) {
	d, _, err := Open(testN, 2, nil, nil, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mgr := d.Manager()
	for round := 0; round < 2; round++ {
		e, err := d.Ingest(nil)
		if err != nil {
			t.Fatal(err)
		}
		if cur := mgr.Epoch(); e != cur || e == 0 {
			t.Fatalf("round %d: empty batch acked epoch %d, current is %d", round, e, cur)
		}
		if _, err := d.Ingest(randUpdates(rand.New(rand.NewSource(int64(round))), 10)); err != nil {
			t.Fatal(err)
		}
		mgr.Refresh(1)
	}
}

func TestVertexCountMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	d, _, err := Open(testN, 2, nil, randUpdates(rand.New(rand.NewSource(2)), 20), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, _, err := Open(testN*2, 2, nil, nil, Config{Dir: dir}); err == nil {
		t.Fatal("vertex-count mismatch against the checkpoint was accepted")
	}
}

func TestDiskFullPropagatesToIngest(t *testing.T) {
	fd := wal.NewFaultDir(3)
	d, _, err := Open(testN, 2, nil, nil, Config{
		Dir: t.TempDir(),
		WAL: wal.Options{OpenFile: fd.OpenFile, Rename: fd.Rename},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Ingest(randUpdates(rand.New(rand.NewSource(3)), 8)); err != nil {
		t.Fatalf("pre-fault ingest: %v", err)
	}
	fd.WriteBudget = 0 // no more bytes: disk full
	if _, err := d.Ingest(randUpdates(rand.New(rand.NewSource(4)), 8)); err == nil {
		t.Fatal("disk-full commit acked")
	}
}

// TestCrashRecoverRandomized is the headline kill-and-recover
// property: a single-goroutine submission stream, a crash at a random
// moment (concurrent with in-flight group commits, so it can tear a
// WAL record or a mid-flight checkpoint), then recovery must rebuild a
// prefix of the stream that contains every acknowledged batch,
// arc-for-arc identical to the never-crashed oracle over that prefix,
// with epochs staying monotone into the next life.
func TestCrashRecoverRandomized(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			fd := wal.NewFaultDir(seed)
			fd.WriteDelay = time.Duration(rng.Intn(200)) * time.Microsecond
			ckptEvery := []uint64{0, 64, 256}[rng.Intn(3)]
			cfg := Config{
				Dir:             dir,
				CheckpointEvery: ckptEvery,
				WAL: wal.Options{
					SegmentBytes: int64(1024 + rng.Intn(4096)),
					OpenFile:     fd.OpenFile,
					Rename:       fd.Rename,
				},
			}
			var boot []edge.Update
			if rng.Intn(2) == 0 {
				boot = randUpdates(rng, 50)
			}
			d, _, err := Open(testN, 2, nil, boot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				d.Manager().Start(snapmgr.Policy{MaxDirty: 8, Poll: time.Millisecond, Workers: 2})
			}

			// Crash at a random point while the stream is in flight.
			crashAfter := time.Duration(rng.Intn(4000)) * time.Microsecond
			crashTimer := time.AfterFunc(crashAfter, fd.Crash)

			var stream [][]edge.Update
			var acks []*batcher.Ack
			for i := 0; i < 60; i++ {
				b := randUpdates(rng, 1+rng.Intn(12))
				a, err := d.Submit(b)
				if err != nil {
					break // stopped/failed mid-stream: acks so far still resolve
				}
				stream = append(stream, b)
				acks = append(acks, a)
			}
			crashTimer.Stop()
			fd.Crash() // crash for sure, possibly mid-commit
			d.Close()  // resolves every outstanding ack
			if !fd.Crashed() {
				t.Fatal("fault dir not crashed")
			}

			// Acked batches must form a prefix (commits are ordered and
			// the WAL fails sticky).
			ackedBatches := 0
			var maxAckEpoch uint64
			for i, a := range acks {
				if err := a.Err(); err == nil {
					if i != ackedBatches {
						t.Fatalf("ack %d ok after ack %d failed — acks not a prefix", i, ackedBatches)
					}
					ackedBatches++
					if e := a.Epoch(); e > maxAckEpoch {
						maxAckEpoch = e
					}
				}
			}
			var ackedUpdates uint64
			for _, b := range stream[:ackedBatches] {
				ackedUpdates += uint64(len(b))
			}

			// Recover with a clean filesystem.
			clean := cfg
			clean.WAL = wal.Options{SegmentBytes: cfg.WAL.SegmentBytes}
			d2, info, err := Open(testN, 2, nil, nil, clean)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer d2.Close()
			if !info.Recovered && (len(boot) > 0 || ackedUpdates > 0) {
				t.Fatalf("durable state existed but recovery found nothing: %+v", info)
			}
			if info.LSN < ackedUpdates {
				t.Fatalf("recovered LSN %d < acked updates %d — lost acknowledged data", info.LSN, ackedUpdates)
			}

			// The recovered graph must equal the oracle over exactly the
			// first LSN updates of the stream (plus bootstrap).
			var prefix [][]edge.Update
			if len(boot) > 0 {
				prefix = append(prefix, boot)
			}
			remain := info.LSN
			for _, b := range stream {
				if remain == 0 {
					break
				}
				if uint64(len(b)) > remain {
					t.Fatalf("recovered LSN %d splits a batch of %d — commits are atomic", info.LSN, len(b))
				}
				prefix = append(prefix, b)
				remain -= uint64(len(b))
			}
			if remain != 0 {
				t.Fatalf("recovered LSN %d exceeds submitted stream", info.LSN)
			}
			sameArcs(t, sortedDump(d2.Manager().Store()), replayOracle(t, prefix...),
				"recovered graph vs oracle")

			// The new life keeps serving and its ack epochs sit above
			// every pre-crash ack.
			e2, err := d2.Ingest(randUpdates(rng, 5))
			if err != nil {
				t.Fatalf("post-recovery ingest: %v", err)
			}
			if e2 <= maxAckEpoch {
				t.Fatalf("post-recovery ack epoch %d not above pre-crash max %d", e2, maxAckEpoch)
			}
		})
	}
}

// TestCrashAtCommitStages pins the crash to each commit-path stage via
// the hook, covering the deterministic corners the randomized sweep
// may miss.
func TestCrashAtCommitStages(t *testing.T) {
	for _, stage := range []string{"pre-append", "post-append", "post-apply"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			fd := wal.NewFaultDir(11)
			rng := rand.New(rand.NewSource(11))
			b1, b2 := randUpdates(rng, 20), randUpdates(rng, 20)

			crashed := false
			d, _, err := Open(testN, 2, nil, nil, Config{
				Dir: dir,
				WAL: wal.Options{OpenFile: fd.OpenFile, Rename: fd.Rename},
				Hook: func(s string) {
					if s == stage && crashed {
						fd.Crash()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Ingest(b1); err != nil {
				t.Fatal(err)
			}
			crashed = true
			_, err = d.Ingest(b2)
			d.Close()

			wantB2 := stage != "pre-append" // append completed (and synced) before the crash
			if wantB2 && err != nil {
				t.Fatalf("stage %s: batch was durable but ack failed: %v", stage, err)
			}
			if !wantB2 && err == nil {
				t.Fatalf("stage %s: batch was not durable but ack succeeded", stage)
			}

			d2, info, err := Open(testN, 2, nil, nil, Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			want := replayOracle(t, b1)
			wantLSN := uint64(len(b1))
			if wantB2 {
				want = replayOracle(t, b1, b2)
				wantLSN += uint64(len(b2))
			}
			if info.LSN != wantLSN {
				t.Fatalf("stage %s: recovered LSN %d, want %d", stage, info.LSN, wantLSN)
			}
			sameArcs(t, sortedDump(d2.Manager().Store()), want, "stage "+stage)
		})
	}
}

// TestCrashDuringCheckpoint kills the model between checkpoint write
// and install: the durable state must still recover from the previous
// checkpoint + full log tail.
func TestCrashDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fd := wal.NewFaultDir(13)
	rng := rand.New(rand.NewSource(13))
	armed := false
	d, _, err := Open(testN, 2, nil, nil, Config{
		Dir:             dir,
		CheckpointEvery: 16,
		WAL: wal.Options{
			OpenFile: fd.OpenFile,
			Rename:   fd.Rename,
			Hook: func(p string) {
				if p == "ckpt-written" && armed {
					fd.Crash()
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b1 := randUpdates(rng, 10)
	if _, err := d.Ingest(b1); err != nil {
		t.Fatal(err)
	}
	armed = true
	b2 := randUpdates(rng, 10) // pushes past CheckpointEvery: triggers the doomed checkpoint
	if _, err := d.Ingest(b2); err != nil {
		t.Fatal(err) // commit itself succeeded; only the checkpoint died
	}
	d.Close()

	d2, info, err := Open(testN, 2, nil, nil, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.LSN != 20 {
		t.Fatalf("recovered LSN %d, want 20", info.LSN)
	}
	sameArcs(t, sortedDump(d2.Manager().Store()), replayOracle(t, b1, b2), "post-checkpoint-crash")
}
