// Package batcher implements the async group-commit front of the
// ingest path: submitters hand in small update slices and immediately
// receive an Ack future, while a single flusher goroutine coalesces
// everything pending into one batch and commits it through a
// caller-supplied CommitFunc (typically WAL append + gated apply,
// internal/durable). One commit = one fsync, amortized over every
// submitter in the batch — the group commit of the PR title.
//
// The pending queue is double-buffered: the flusher swaps the filled
// buffer out under the lock and commits outside it, so submitters keep
// filling the other buffer during the (comparatively slow) fsync.
//
// Grouping is natural: the flusher commits whenever it is free and
// something is pending, and whatever arrives during a commit is the
// next group. A lone submitter is never held back waiting for company
// (a group of one commits at once); concurrent submitters coalesce
// exactly as far as the commit path is slow — there is no size or age
// trigger to tune. Admission control is the caller's choice per call:
// Submit blocks when MaxPending updates are queued (backpressure),
// TrySubmit sheds with ErrFull instead.
//
// The Ack resolves after the commit function returns — for a durable
// commit fn that means the updates are fsynced and applied — carrying
// the snapshot epoch that will contain the batch, so callers can get
// read-your-writes by waiting for a view with Epoch() >= ack epoch.
package batcher

import (
	"errors"
	"sync"
	"time"

	"snapdyn/internal/edge"
)

// ErrFull is returned by TrySubmit when MaxPending updates are queued.
var ErrFull = errors.New("batcher: pending queue full")

// ErrStopped is returned by submissions after Stop.
var ErrStopped = errors.New("batcher: stopped")

// ErrTimeout is returned by Ack.Wait when the commit does not resolve
// in time. The submission itself is still in flight — a timeout
// abandons the wait, not the updates.
var ErrTimeout = errors.New("batcher: ack timeout")

// CommitFunc durably commits one coalesced batch and returns the
// snapshot epoch that will contain it. It runs on the flusher
// goroutine, serially; an error fails every Ack in the batch. The
// batch slice is recycled after the call returns (double buffering) —
// implementations must not retain it.
type CommitFunc func(batch []edge.Update) (epoch uint64, err error)

// Config tunes the batcher. The zero value picks the default noted.
type Config struct {
	// MaxPending is the queued-update ceiling at which Submit blocks
	// and TrySubmit sheds (default 32768). A single oversized
	// submission larger than MaxPending is still admitted whole when
	// the queue is empty rather than deadlocking.
	MaxPending int
}

func (c Config) withDefaults() Config {
	if c.MaxPending <= 0 {
		c.MaxPending = 32768
	}
	return c
}

// Metrics counts batcher activity since Start.
type Metrics struct {
	// Submitted counts accepted updates; Shed counts updates rejected
	// by TrySubmit at a full queue.
	Submitted uint64
	Shed      uint64
	// Flushes counts commits; Submitted/Flushes is the realized group
	// size. CommitErrs counts commits whose CommitFunc failed.
	Flushes    uint64
	CommitErrs uint64
}

// Ack is the future a submission resolves through: Done closes once
// the batch containing the submission has been committed (or failed).
type Ack struct {
	done  chan struct{}
	epoch uint64
	err   error
}

// Done returns a channel closed when the commit has resolved.
func (a *Ack) Done() <-chan struct{} { return a.done }

// Epoch blocks until resolution and returns the snapshot epoch that
// will contain the submission (meaningless if Err is non-nil).
func (a *Ack) Epoch() uint64 { <-a.done; return a.epoch }

// Err blocks until resolution and returns the commit error, if any.
func (a *Ack) Err() error { <-a.done; return a.err }

// Wait blocks up to timeout (forever if <= 0) for resolution,
// returning the ack epoch and commit error, or ErrTimeout.
func (a *Ack) Wait(timeout time.Duration) (uint64, error) {
	if timeout <= 0 {
		<-a.done
		return a.epoch, a.err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-a.done:
		return a.epoch, a.err
	case <-t.C:
		return 0, ErrTimeout
	}
}

// Batcher coalesces submissions into group commits. Create with New,
// stop with Stop; all methods are safe for concurrent use.
type Batcher struct {
	cfg    Config
	commit CommitFunc

	mu      sync.Mutex
	room    *sync.Cond // signaled when a flush drains the queue
	pending []edge.Update
	acks    []*Ack
	spare   []edge.Update // the flushed buffer, recycled (double buffering)
	stopped bool

	kick   chan struct{} // cap 1: pending became non-empty
	stopCh chan struct{}
	done   chan struct{}

	metMu sync.Mutex
	met   Metrics
}

// New starts a batcher committing through fn.
func New(cfg Config, fn CommitFunc) *Batcher {
	b := &Batcher{
		cfg:    cfg.withDefaults(),
		commit: fn,
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	b.room = sync.NewCond(&b.mu)
	go b.run()
	return b
}

// Metrics returns a copy of the activity counters.
func (b *Batcher) Metrics() Metrics {
	b.metMu.Lock()
	defer b.metMu.Unlock()
	return b.met
}

// Submit queues updates for the next group commit, blocking while the
// pending queue is full (backpressure: ingest slows to the commit
// path's speed instead of dropping). The returned Ack resolves when
// the containing batch commits. Empty submissions resolve immediately
// against the current state.
func (b *Batcher) Submit(updates []edge.Update) (*Ack, error) {
	b.mu.Lock()
	for !b.stopped && len(b.pending) > 0 && len(b.pending)+len(updates) > b.cfg.MaxPending {
		b.room.Wait()
	}
	return b.enqueueLocked(updates)
}

// TrySubmit queues updates like Submit but sheds with ErrFull instead
// of blocking when the queue cannot take them.
func (b *Batcher) TrySubmit(updates []edge.Update) (*Ack, error) {
	b.mu.Lock()
	if !b.stopped && len(b.pending) > 0 && len(b.pending)+len(updates) > b.cfg.MaxPending {
		b.mu.Unlock()
		b.metMu.Lock()
		b.met.Shed += uint64(len(updates))
		b.metMu.Unlock()
		return nil, ErrFull
	}
	return b.enqueueLocked(updates)
}

// enqueueLocked appends updates and registers an ack. Called with
// b.mu held; unlocks it.
func (b *Batcher) enqueueLocked(updates []edge.Update) (*Ack, error) {
	if b.stopped {
		b.mu.Unlock()
		return nil, ErrStopped
	}
	a := &Ack{done: make(chan struct{})}
	if len(updates) == 0 {
		b.mu.Unlock()
		close(a.done)
		return a, nil
	}
	wasEmpty := len(b.pending) == 0
	b.pending = append(b.pending, updates...)
	b.acks = append(b.acks, a)
	b.mu.Unlock()

	b.metMu.Lock()
	b.met.Submitted += uint64(len(updates))
	b.metMu.Unlock()

	// A flusher mid-commit finds the queue non-empty on its own when it
	// comes back; only an idle one needs waking.
	if wasEmpty {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
	return a, nil
}

// Stop flushes everything pending, resolves every outstanding Ack,
// and stops the flusher. Submissions racing with Stop either commit
// in the final flush or fail with ErrStopped; none are left hanging.
// Idempotent.
func (b *Batcher) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.stopped = true
	b.mu.Unlock()
	b.room.Broadcast() // fail blocked submitters
	close(b.stopCh)
	<-b.done
}

// run is the flusher: it owns the commit path, swapping the pending
// buffer out under the lock and committing outside it, for as long as
// anything is pending; then it sleeps until the next submission.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		select {
		case <-b.kick:
		case <-b.stopCh:
		}
		for {
			b.mu.Lock()
			if len(b.pending) == 0 {
				stopped := b.stopped
				b.mu.Unlock()
				if stopped {
					return
				}
				break // back to waiting for work
			}
			batch, acks := b.pending, b.acks
			b.pending, b.spare = b.spare[:0], nil
			b.acks = nil
			b.mu.Unlock()
			b.room.Broadcast()

			epoch, err := b.commit(batch)
			for _, a := range acks {
				a.epoch, a.err = epoch, err
				close(a.done)
			}
			b.metMu.Lock()
			b.met.Flushes++
			if err != nil {
				b.met.CommitErrs++
			}
			b.metMu.Unlock()

			b.mu.Lock()
			b.spare = batch[:0]
			b.mu.Unlock()
		}
	}
}
