package snapmgr

import (
	"slices"
	"testing"
	"time"

	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
)

func newStore(n int) *dyngraph.Tracked {
	return dyngraph.NewTracked(dyngraph.NewHybrid(n, 8*n, 0, 1))
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAutoRefreshDirtyTrigger(t *testing.T) {
	store := newStore(64)
	m := New(0, store)
	if !m.Start(Policy{MaxDirty: 4}) {
		t.Fatal("Start returned false on first call")
	}
	defer m.Stop()
	if m.Start(Policy{}) {
		t.Fatal("second Start must report false")
	}

	// Below the threshold: no refresh even after several polls.
	m.Ingest(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	time.Sleep(20 * time.Millisecond)
	if e := m.Epoch(); e != 1 {
		t.Fatalf("epoch = %d after sub-threshold dirt, want 1", e)
	}

	// Crossing it: the background refresher publishes on its own.
	m.Ingest(func(s *dyngraph.Tracked) {
		s.Insert(3, 4, 10)
		s.Insert(5, 6, 10)
		s.Insert(7, 8, 10)
	})
	waitFor(t, 2*time.Second, func() bool { return m.Epoch() >= 2 }, "dirty-triggered refresh")
	waitFor(t, 2*time.Second, func() bool { return m.Staleness() == 0 }, "dirty set consumed")
	if g := m.Current(); g.NumEdges() != 4 {
		t.Fatalf("snapshot has %d arcs, want 4", g.NumEdges())
	}
	met := m.Metrics()
	if met.AutoRefreshes == 0 || met.DirtyTriggered == 0 {
		t.Fatalf("metrics = %+v, want dirty-triggered auto refresh counted", met)
	}
}

func TestAutoRefreshAgeTrigger(t *testing.T) {
	store := newStore(64)
	m := New(0, store)
	// Huge dirty threshold: only the age trigger can fire.
	if !m.Start(Policy{MaxDirty: 1 << 30, MaxAge: 10 * time.Millisecond}) {
		t.Fatal("Start returned false")
	}
	defer m.Stop()

	m.Ingest(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	waitFor(t, 2*time.Second, func() bool { return m.Epoch() >= 2 }, "age-triggered refresh")
	met := m.Metrics()
	if met.AgeTriggered == 0 {
		t.Fatalf("metrics = %+v, want age-triggered refresh counted", met)
	}
	if g := m.Current(); g.NumEdges() != 1 {
		t.Fatalf("snapshot has %d arcs, want 1", g.NumEdges())
	}
}

func TestAutoRefreshZeroPolicyRefreshesOnAnyDirt(t *testing.T) {
	store := newStore(64)
	m := New(0, store)
	if !m.Start(Policy{}) {
		t.Fatal("Start returned false")
	}
	defer m.Stop()
	m.Ingest(func(s *dyngraph.Tracked) { s.Insert(9, 10, 1) })
	waitFor(t, 2*time.Second, func() bool { return m.Epoch() >= 2 }, "zero-policy refresh")
}

// TestTriggerCheckCountsFromPublication: after every refresh the loop
// makes, demanded or triggered, the next trigger refresh comes at least
// one check interval later, so dirt that arrives during a refresh is not
// published right behind it.
func TestTriggerCheckCountsFromPublication(t *testing.T) {
	store := newStore(64)
	m := New(0, store)
	p := Policy{MaxDirty: 1, MaxAge: 400 * time.Millisecond} // checks every 50ms
	if !m.Start(p) {
		t.Fatal("Start returned false")
	}
	defer m.Stop()
	// Refresh counts a refresh after stamping its publication time.
	published := func(n uint64) int64 {
		waitFor(t, 5*time.Second, func() bool { return m.Metrics().Refreshes >= n }, "a refresh")
		return m.lastPub.Load()
	}

	ack := m.IngestEpoch(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	if _, err := m.WaitEpoch(ack, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	last := published(2)
	for i := 0; i < 2; i++ {
		m.Ingest(func(s *dyngraph.Tracked) { s.Insert(edge.ID(3+2*i), edge.ID(4+2*i), 10) })
		at := published(uint64(3 + i))
		if gap := time.Duration(at - last); gap < p.poll() {
			t.Fatalf("trigger refresh %d came %v after the publication before it, want >= %v", i, gap, p.poll())
		}
		last = at
	}
}

func TestStopHaltsRefresher(t *testing.T) {
	store := newStore(64)
	m := New(0, store)
	m.Start(Policy{})
	m.Stop()
	m.Stop() // idempotent

	m.Ingest(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	time.Sleep(20 * time.Millisecond)
	if e := m.Epoch(); e != 1 {
		t.Fatalf("epoch advanced to %d after Stop, want 1", e)
	}
	if m.Staleness() != 1 {
		t.Fatalf("staleness = %d, want 1 (pending until next refresh)", m.Staleness())
	}
	// A restart picks the pending updates up.
	if !m.Start(Policy{}) {
		t.Fatal("restart after Stop must succeed")
	}
	defer m.Stop()
	waitFor(t, 2*time.Second, func() bool { return m.Staleness() == 0 }, "restarted refresher")
}

func TestRefreshMetricsLatencies(t *testing.T) {
	store := newStore(256)
	m := New(0, store)
	for i := 0; i < 3; i++ {
		m.Ingest(func(s *dyngraph.Tracked) { s.Insert(edge.ID(2*i), edge.ID(2*i+1), 5) })
		m.Refresh(0)
	}
	met := m.Metrics()
	if met.Refreshes != 4 { // initial + 3 manual
		t.Fatalf("refreshes = %d, want 4", met.Refreshes)
	}
	if met.LastDirty != 1 {
		t.Fatalf("last dirty = %d, want 1", met.LastDirty)
	}
	if met.TotalLatency < met.MaxLatency || met.MaxLatency < met.LastLatency && met.LastLatency > met.TotalLatency {
		t.Fatalf("latency accounting inconsistent: %+v", met)
	}
	if met.Epoch != 4 || met.Staleness != 0 {
		t.Fatalf("lag fields wrong: %+v", met)
	}
}

// TestRefreshPatchMetrics drives the manager with hub churn and reads
// how each snapshot was built off the metrics: the first materialization
// enumerates everything, a window touching a treap-mode hub is patched
// from its keys, an array-mode vertex is enumerated, and an overflowed
// key log falls back to enumerating the dirty vertices — every
// published snapshot arc-for-arc equal to a full rebuild.
func TestRefreshPatchMetrics(t *testing.T) {
	const n, hubDeg = 1 << 12, 200
	store := newStore(n)
	boot := make([]edge.Update, 0, 2*n)
	for v := 1; v <= hubDeg; v++ {
		boot = append(boot, edge.Update{Edge: edge.Edge{U: 0, V: edge.ID(v), T: 1}, Op: edge.Insert})
	}
	for u := 1; u < n; u++ {
		boot = append(boot, edge.Update{Edge: edge.Edge{U: edge.ID(u), V: 0, T: 1}, Op: edge.Insert})
	}
	store.ApplyBatch(0, boot)
	m := New(0, store)
	check := func(tag string, patched int, enumerated int64) {
		t.Helper()
		met := m.Metrics()
		if met.LastPatched != patched || met.LastEnumeratedArcs != enumerated {
			t.Fatalf("%s: patched %d, enumerated %d arcs; want %d and %d",
				tag, met.LastPatched, met.LastEnumeratedArcs, patched, enumerated)
		}
		got, want := m.Current(), csr.FromStore(0, store)
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) || !slices.Equal(got.TS, want.TS) {
			t.Fatalf("%s: published snapshot differs from a full rebuild", tag)
		}
	}
	check("first materialization", 0, int64(len(boot)))

	m.Ingest(func(s *dyngraph.Tracked) {
		s.ApplyBatch(0, []edge.Update{
			{Edge: edge.Edge{U: 0, V: 3000, T: 2}, Op: edge.Insert},
			{Edge: edge.Edge{U: 0, V: 7, T: 2}, Op: edge.Delete},
			{Edge: edge.Edge{U: 5, V: 6, T: 2}, Op: edge.Insert}, // array mode
		})
	})
	m.Refresh(0)
	check("hub patched", 1, 2)

	m.Ingest(func(s *dyngraph.Tracked) {
		s.Insert(0, 3001, 3)
		flood := make([]edge.Update, 1<<16)
		for i := range flood {
			flood[i] = edge.Update{Edge: edge.Edge{U: 9, V: edge.ID(1 + i%(n-1)), T: 3}, Op: edge.Delete}
		}
		s.ApplyBatch(0, flood) // all miss; the key log overflows
	})
	m.Refresh(0)
	check("log overflowed", 0, hubDeg+1+1)

	m.Ingest(func(s *dyngraph.Tracked) { s.Delete(0, 3001) })
	m.Refresh(0)
	check("patched again", 1, 0)
}
