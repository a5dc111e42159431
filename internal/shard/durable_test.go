package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"snapdyn/internal/durable"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/wal"
)

const durN = 64

func durRandUpdates(rng *rand.Rand, n int) []edge.Update {
	out := make([]edge.Update, n)
	for i := range out {
		u := edge.Update{Edge: edge.Edge{
			U: uint32(rng.Intn(durN)),
			V: uint32(rng.Intn(durN)),
			T: uint32(rng.Intn(4)),
		}}
		if rng.Intn(4) == 0 {
			u.Op = edge.Delete
		}
		out[i] = u
	}
	return out
}

func sortedArcs(s dyngraph.Store) []edge.Edge {
	arcs := durable.Dump(s)
	sort.Slice(arcs, func(i, j int) bool {
		a, b := arcs[i], arcs[j]
		if a.U != b.U {
			return a.U < b.U
		}
		if a.V != b.V {
			return a.V < b.V
		}
		return a.T < b.T
	})
	return arcs
}

// shardOracle replays batches sequentially into a fresh store matching
// shard s's construction, the per-shard ground truth.
func shardOracle(s int, batches ...[]edge.Update) dyngraph.Store {
	st := dyngraph.NewTracked(dyngraph.NewHybrid(durN, 8*durN/durShards+1, 0, uint64(s)+1))
	for _, b := range batches {
		st.ApplyBatch(2, b)
	}
	return st
}

const durShards = 3

// TestDurableFleetRoundtrip: bootstrap + durable ingest + clean close +
// reopen must reproduce every shard exactly, and fleet ack epochs must
// stay monotone across the restart.
func TestDurableFleetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	boot := durRandUpdates(rng, 200)
	cfg := Config{Shards: durShards, Workers: 2, ExpectedEdges: 8 * durN}
	dc := durable.Config{Dir: dir}

	df, infos, err := OpenDurable(durN, cfg, boot, dc)
	if err != nil {
		t.Fatal(err)
	}
	for s, info := range infos {
		if info.Recovered {
			t.Fatalf("shard %d: fresh dir reported recovery %+v", s, info)
		}
	}
	var stream [][]edge.Update
	var lastEpoch uint64
	for i := 0; i < 20; i++ {
		b := durRandUpdates(rng, 30)
		stream = append(stream, b)
		e, err := df.Ingest(b)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		// Non-decreasing, not strictly: batches flushed between the same
		// pair of refreshes share their containing epoch.
		if e < lastEpoch {
			t.Fatalf("ack epoch regressed: %d then %d", lastEpoch, e)
		}
		lastEpoch = e
	}
	if err := df.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	df2, infos2, err := OpenDurable(durN, cfg, nil, dc)
	if err != nil {
		t.Fatal(err)
	}
	defer df2.Close()
	for s := 0; s < durShards; s++ {
		if !infos2[s].Recovered {
			t.Fatalf("shard %d: no recovery after clean close", s)
		}
		subs := [][]edge.Update{scatterFor(boot, s)}
		for _, b := range stream {
			subs = append(subs, scatterFor(b, s))
		}
		want := sortedArcs(shardOracle(s, subs...))
		got := sortedArcs(df2.Manager(s).Store())
		if !arcsEqual(got, want) {
			t.Fatalf("shard %d: recovered %d arcs != oracle %d arcs", s, len(got), len(want))
		}
	}
	e2, err := df2.Ingest(durRandUpdates(rng, 10))
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= lastEpoch {
		t.Fatalf("ack epoch regressed across restart: %d then %d", lastEpoch, e2)
	}
}

func scatterFor(batch []edge.Update, s int) []edge.Update {
	var out []edge.Update
	for _, u := range batch {
		if int(u.U%durShards) == s {
			out = append(out, u)
		}
	}
	return out
}

func arcsEqual(a, b []edge.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || reflect.DeepEqual(a, b)
}

// TestDurableFleetCrashRecover kills the whole fleet's filesystem at a
// random moment mid-ingest and checks, per shard, that recovery lands
// on a sub-batch boundary covering everything the fleet acknowledged,
// and that the recovered arcs match a sequential replay of exactly
// that sub-stream prefix.
func TestDurableFleetCrashRecover(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed))
			fd := wal.NewFaultDir(seed)
			fd.WriteDelay = time.Duration(rng.Intn(200)) * time.Microsecond
			cfg := Config{Shards: durShards, Workers: 2, ExpectedEdges: 8 * durN}
			dc := durable.Config{
				Dir:             dir,
				CheckpointEvery: uint64(rng.Intn(3)) * 100,
				WAL: wal.Options{
					SegmentBytes: 2048,
					OpenFile:     fd.OpenFile,
					Rename:       fd.Rename,
				},
			}
			df, _, err := OpenDurable(durN, cfg, nil, dc)
			if err != nil {
				t.Fatal(err)
			}

			var stream [][]edge.Update
			acked := 0
			crash := time.AfterFunc(time.Duration(1+rng.Intn(15))*time.Millisecond, fd.Crash)
			for i := 0; i < 60; i++ {
				b := durRandUpdates(rng, 1+rng.Intn(20))
				stream = append(stream, b)
				if _, err := df.Ingest(b); err != nil {
					break
				}
				acked++
			}
			crash.Stop()
			fd.Crash() // ensure the crash happened even if ingest outran the timer
			df.Close()

			// Recovery reopens through the real filesystem: the fault
			// model's job ended at the crash.
			df2, infos, err := OpenDurable(durN, cfg, nil, durable.Config{
				Dir: dir,
			})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer df2.Close()

			for s := 0; s < durShards; s++ {
				// Per-shard sub-stream and its cumulative update counts.
				var subs [][]edge.Update
				for _, b := range stream {
					subs = append(subs, scatterFor(b, s))
				}
				lsn := infos[s].LSN
				var cum uint64
				k := 0
				for k < len(subs) && cum < lsn {
					cum += uint64(len(subs[k]))
					k++
				}
				if cum != lsn {
					t.Fatalf("shard %d: recovered LSN %d splits a sub-batch", s, lsn)
				}
				var ackedUpdates uint64
				for i := 0; i < acked; i++ {
					ackedUpdates += uint64(len(subs[i]))
				}
				if lsn < ackedUpdates {
					t.Fatalf("shard %d: recovered LSN %d < acked updates %d", s, lsn, ackedUpdates)
				}
				want := sortedArcs(shardOracle(s, subs[:k]...))
				got := sortedArcs(df2.Manager(s).Store())
				if !arcsEqual(got, want) {
					t.Fatalf("shard %d: recovered arcs diverge from replay of %d sub-batches", s, k)
				}
			}
		})
	}
}
