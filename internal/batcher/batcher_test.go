package batcher

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapdyn/internal/edge"
)

func ups(n int) []edge.Update {
	out := make([]edge.Update, n)
	for i := range out {
		out[i] = edge.Update{Op: edge.Insert, Edge: edge.Edge{U: uint32(i), V: uint32(i + 1)}}
	}
	return out
}

// collector is a CommitFunc recording committed batches.
type collector struct {
	mu      sync.Mutex
	batches [][]edge.Update
	total   int
	epoch   uint64
	err     error
	slow    time.Duration
}

func (c *collector) commit(batch []edge.Update) (uint64, error) {
	if c.slow > 0 {
		time.Sleep(c.slow)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	// The batch slice is recycled after return: copy.
	c.batches = append(c.batches, append([]edge.Update(nil), batch...))
	c.total += len(batch)
	c.epoch++
	return c.epoch, nil
}

func (c *collector) snapshot() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.batches), c.total
}

func TestGroupCommitCoalesces(t *testing.T) {
	c := &collector{slow: 2 * time.Millisecond}
	b := New(Config{}, c.commit)
	defer b.Stop()

	// Fire many concurrent submitters; the slow commit forces later
	// ones to coalesce while the first flush is in flight.
	const n = 64
	var wg sync.WaitGroup
	acks := make([]*Ack, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := b.Submit(ups(3))
			if err != nil {
				t.Error(err)
				return
			}
			acks[i] = a
		}()
	}
	wg.Wait()
	b.Stop() // flush whatever is pending

	flushes, total := c.snapshot()
	if total != n*3 {
		t.Fatalf("committed %d updates, want %d", total, n*3)
	}
	if flushes >= n {
		t.Fatalf("%d flushes for %d submissions — no coalescing", flushes, n)
	}
	for i, a := range acks {
		if err := a.Err(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if a.Epoch() == 0 {
			t.Fatalf("ack %d: zero epoch", i)
		}
	}
	if m := b.Metrics(); m.Submitted != n*3 || m.Flushes != uint64(flushes) {
		t.Fatalf("metrics %+v", m)
	}
}

// TestLoneSubmitCommitsAtOnce: a submission that finds the flusher idle
// is its own group — nothing holds it back for a size or an age.
func TestLoneSubmitCommitsAtOnce(t *testing.T) {
	c := &collector{}
	b := New(Config{}, c.commit)
	defer b.Stop()
	for i := 1; i <= 3; i++ {
		a, err := b.Submit(ups(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Wait(2 * time.Second); err != nil {
			t.Fatalf("lone submission %d did not commit: %v", i, err)
		}
		if flushes, _ := c.snapshot(); flushes != i {
			t.Fatalf("%d flushes after %d lone submissions", flushes, i)
		}
	}
}

func TestTrySubmitSheds(t *testing.T) {
	block := make(chan struct{})
	var entered sync.Once
	started := make(chan struct{})
	b := New(Config{MaxPending: 8},
		func(batch []edge.Update) (uint64, error) {
			entered.Do(func() { close(started) })
			<-block
			return 1, nil
		})
	defer func() { close(block); b.Stop() }()

	if _, err := b.Submit(ups(4)); err != nil { // flushes, commit blocks
		t.Fatal(err)
	}
	<-started
	if _, err := b.Submit(ups(8)); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, err := b.TrySubmit(ups(1)); !errors.Is(err, ErrFull) {
		t.Fatalf("err %v, want ErrFull", err)
	}
	if m := b.Metrics(); m.Shed != 1 {
		t.Fatalf("metrics %+v, want Shed=1", m)
	}
}

func TestSubmitBackpressureBlocksThenProceeds(t *testing.T) {
	release := make(chan struct{})
	var entered sync.Once
	started := make(chan struct{})
	b := New(Config{MaxPending: 8},
		func(batch []edge.Update) (uint64, error) {
			entered.Do(func() { close(started) })
			<-release
			return 1, nil
		})

	if _, err := b.Submit(ups(4)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := b.Submit(ups(8)); err != nil {
		t.Fatal(err)
	}
	var blockedDone atomic.Bool
	unblocked := make(chan *Ack, 1)
	go func() {
		a, err := b.Submit(ups(2)) // must block: queue full
		if err != nil {
			t.Error(err)
		}
		blockedDone.Store(true)
		unblocked <- a
	}()
	time.Sleep(20 * time.Millisecond)
	if blockedDone.Load() {
		t.Fatal("Submit did not block at a full queue")
	}
	close(release) // commits drain the queue
	a := <-unblocked
	if _, err := a.Wait(2 * time.Second); err != nil {
		t.Fatalf("blocked submission never committed: %v", err)
	}
	b.Stop()
}

func TestStopResolvesAllAcks(t *testing.T) {
	c := &collector{slow: time.Millisecond}
	b := New(Config{}, c.commit)
	var acks []*Ack
	for i := 0; i < 10; i++ {
		a, err := b.Submit(ups(2))
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, a)
	}
	b.Stop()
	for i, a := range acks {
		select {
		case <-a.Done():
		default:
			t.Fatalf("ack %d unresolved after Stop", i)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if _, total := c.snapshot(); total != 20 {
		t.Fatalf("committed %d updates, want 20", total)
	}
	if _, err := b.Submit(ups(1)); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop: %v, want ErrStopped", err)
	}
	if _, err := b.TrySubmit(ups(1)); !errors.Is(err, ErrStopped) {
		t.Fatalf("TrySubmit after Stop: %v, want ErrStopped", err)
	}
	b.Stop() // idempotent
}

func TestCommitErrorPropagatesToEveryAck(t *testing.T) {
	boom := errors.New("disk on fire")
	c := &collector{err: boom}
	b := New(Config{}, c.commit)
	a1, err := b.Submit(ups(2))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.Submit(ups(2))
	if err != nil {
		t.Fatal(err)
	}
	b.Stop()
	if !errors.Is(a1.Err(), boom) || !errors.Is(a2.Err(), boom) {
		t.Fatalf("ack errors %v / %v, want %v", a1.Err(), a2.Err(), boom)
	}
	if m := b.Metrics(); m.CommitErrs == 0 {
		t.Fatalf("metrics %+v, want CommitErrs > 0", m)
	}
}

func TestEmptySubmitResolvesImmediately(t *testing.T) {
	b := New(Config{}, func(batch []edge.Update) (uint64, error) { return 1, nil })
	defer b.Stop()
	a, err := b.Submit(nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.Done():
	default:
		t.Fatal("empty submission not resolved immediately")
	}
}

func TestAckWaitTimeout(t *testing.T) {
	block := make(chan struct{})
	b := New(Config{},
		func(batch []edge.Update) (uint64, error) { <-block; return 1, nil })
	a, err := b.Submit(ups(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err %v, want ErrTimeout", err)
	}
	close(block)
	if _, err := a.Wait(2 * time.Second); err != nil {
		t.Fatalf("post-timeout wait: %v", err)
	}
	b.Stop()
}

// TestPreservesSubmissionOrder: updates from one submitter stay
// contiguous and in order within and across flushes.
func TestPreservesSubmissionOrder(t *testing.T) {
	c := &collector{}
	b := New(Config{}, c.commit)
	var want []edge.Update
	for i := 0; i < 50; i++ {
		u := edge.Update{Op: edge.Insert, Edge: edge.Edge{U: uint32(i), V: uint32(i), T: uint32(i)}}
		want = append(want, u)
		if _, err := b.Submit([]edge.Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	b.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	var got []edge.Update
	for _, batch := range c.batches {
		got = append(got, batch...)
	}
	if len(got) != len(want) {
		t.Fatalf("committed %d updates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("update %d out of order: %+v != %+v", i, got[i], want[i])
		}
	}
}
