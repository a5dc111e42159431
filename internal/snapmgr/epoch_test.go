package snapmgr

import (
	"errors"
	"testing"
	"time"

	"snapdyn/internal/dyngraph"
)

func newMgr(t *testing.T) *Manager {
	t.Helper()
	return New(2, newStore(64))
}

func TestIngestEpochContainsBatch(t *testing.T) {
	m := newMgr(t)
	e := m.IngestEpoch(func(s *dyngraph.Tracked) {
		s.Insert(1, 2, 10)
	})
	if e != m.Epoch()+1 {
		t.Fatalf("ack epoch %d, want %d", e, m.Epoch()+1)
	}
	m.Refresh(2)
	if m.Epoch() != e {
		t.Fatalf("published epoch %d, want ack epoch %d", m.Epoch(), e)
	}
	// The snapshot at the ack epoch must contain the arc.
	adj, ts := m.Current().Neighbors(1)
	found := false
	for i, v := range adj {
		if v == 2 && ts[i] == 10 {
			found = true
		}
	}
	if !found {
		t.Fatal("acked arc missing from the ack-epoch snapshot")
	}
}

func TestIngestEpochNoopReturnsCurrent(t *testing.T) {
	m := newMgr(t)
	cur := m.Epoch()
	e := m.IngestEpoch(func(s *dyngraph.Tracked) {
		s.Delete(3, 4) // miss: nothing dirty
	})
	if e != cur {
		t.Fatalf("no-op ack epoch %d, want current %d — waiters would hang", e, cur)
	}
}

func TestWaitEpochAlreadySatisfied(t *testing.T) {
	m := newMgr(t)
	e, err := m.WaitEpoch(m.Epoch(), 0)
	if err != nil || e < 1 {
		t.Fatalf("WaitEpoch on current: %d, %v", e, err)
	}
}

func TestWaitEpochWakesOnRefresh(t *testing.T) {
	m := newMgr(t)
	target := m.Epoch() + 1
	done := make(chan error, 1)
	go func() {
		_, err := m.WaitEpoch(target, 5*time.Second)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m.IngestEpoch(func(s *dyngraph.Tracked) { s.Insert(1, 2, 0) })
	m.Refresh(2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitEpoch never woke")
	}
}

func TestWaitEpochTimeout(t *testing.T) {
	m := newMgr(t)
	start := time.Now()
	e, err := m.WaitEpoch(m.Epoch()+100, 20*time.Millisecond)
	if !errors.Is(err, ErrEpochWaitTimeout) {
		t.Fatalf("err %v, want ErrEpochWaitTimeout", err)
	}
	if e != m.Epoch() {
		t.Fatalf("timeout returned epoch %d, want latest %d", e, m.Epoch())
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

func TestSetEpochBase(t *testing.T) {
	m := newMgr(t)
	m.SetEpochBase(50)
	if m.Epoch() != 50 {
		t.Fatalf("epoch %d, want 50", m.Epoch())
	}
	m.SetEpochBase(10) // lower: ignored
	if m.Epoch() != 50 {
		t.Fatalf("epoch lowered to %d", m.Epoch())
	}
	// Waiters below the new base wake on re-base.
	done := make(chan struct{})
	go func() {
		m.WaitEpoch(51, 5*time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	m.SetEpochBase(60)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitEpoch did not wake on SetEpochBase")
	}
	// Refresh keeps counting from the base.
	m.IngestEpoch(func(s *dyngraph.Tracked) { s.Insert(1, 2, 0) })
	m.Refresh(2)
	if m.Epoch() != 61 {
		t.Fatalf("epoch after refresh %d, want 61", m.Epoch())
	}
}

// noTriggers starts a refresher whose dirty and age triggers never fire
// within a test, so every publication it makes is a demanded one.
func noTriggers(t *testing.T, m *Manager) {
	t.Helper()
	if !m.Start(Policy{MaxDirty: 1 << 30, MaxAge: time.Hour}) {
		t.Fatal("Start returned false")
	}
	t.Cleanup(m.Stop)
}

func TestDemandPublishesNextEpoch(t *testing.T) {
	m := newMgr(t)
	noTriggers(t, m)
	ack := m.IngestEpoch(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	e, err := m.WaitEpoch(ack, 5*time.Second)
	if err != nil || e < ack {
		t.Fatalf("WaitEpoch(%d) = %d, %v", ack, e, err)
	}
	// The refresher accounts its refresh just after publishing it.
	waitFor(t, 5*time.Second, func() bool { return m.Metrics().AutoRefreshes > 0 }, "the demanded refresh to be counted")
	met := m.Metrics()
	if met.DemandTriggered != 1 || met.AutoRefreshes != 1 {
		t.Fatalf("metrics = %+v, want one demand-triggered auto refresh", met)
	}
	if g := m.Current(); g.NumEdges() != 1 {
		t.Fatalf("snapshot has %d arcs, want 1", g.NumEdges())
	}
}

func TestDemandCoalescesWaiters(t *testing.T) {
	m := newMgr(t)
	noTriggers(t, m)
	ack := m.IngestEpoch(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	const waiters = 8
	errs := make(chan error, waiters)
	start := make(chan struct{})
	for i := 0; i < waiters; i++ {
		go func() {
			<-start
			_, err := m.WaitEpoch(ack, 5*time.Second)
			errs <- err
		}()
	}
	close(start)
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// A late kick from a waiter that saw the old epoch must be spent,
	// not turned into a second refresh.
	waitFor(t, 5*time.Second, func() bool { return m.Metrics().DemandTriggered > 0 }, "the demanded refresh to be counted")
	time.Sleep(20 * time.Millisecond)
	if met := m.Metrics(); met.DemandTriggered != 1 || met.Refreshes != 2 {
		t.Fatalf("metrics = %+v, want one demanded refresh for %d waiters", met, waiters)
	}
}

func TestWaitEpochRefusesBeyondNext(t *testing.T) {
	m := newMgr(t)
	noTriggers(t, m)
	ack := m.IngestEpoch(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	start := time.Now()
	e, err := m.WaitEpoch(ack+1, 10*time.Second)
	if !errors.Is(err, ErrEpochWaitTimeout) {
		t.Fatalf("err %v, want ErrEpochWaitTimeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("unreachable epoch held the waiter for %v", d)
	}
	time.Sleep(20 * time.Millisecond)
	if e != ack-1 || m.Epoch() != ack-1 {
		t.Fatalf("epoch %d (returned %d), want %d: a refusal must not publish", m.Epoch(), e, ack-1)
	}
	if met := m.Metrics(); met.DemandTriggered != 0 {
		t.Fatalf("metrics = %+v, want no demand for an epoch two ahead", met)
	}
}

func TestDemandWithoutRefresherTimesOut(t *testing.T) {
	m := newMgr(t)
	ack := m.IngestEpoch(func(s *dyngraph.Tracked) { s.Insert(1, 2, 10) })
	e, err := m.WaitEpoch(ack, 30*time.Millisecond)
	if !errors.Is(err, ErrEpochWaitTimeout) || e != ack-1 {
		t.Fatalf("WaitEpoch(%d) = %d, %v; want %d and ErrEpochWaitTimeout", ack, e, err, ack-1)
	}
	if met := m.Metrics(); met.Refreshes != 1 || met.DemandTriggered != 0 {
		t.Fatalf("metrics = %+v, want only the initial publication", met)
	}
}
