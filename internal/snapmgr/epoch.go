package snapmgr

import (
	"errors"
	"time"

	"snapdyn/internal/dyngraph"
)

// ErrEpochWaitTimeout is returned by WaitEpoch when the requested
// epoch is not published within the timeout.
var ErrEpochWaitTimeout = errors.New("snapmgr: epoch wait timeout")

// IngestEpoch is Ingest returning the epoch whose snapshot is
// guaranteed to contain fn's mutations: the ack epoch of the durable
// ingest path. While fn runs the shared gate is held, so no Refresh
// can interleave between mutating the store and reading the epoch —
// the next publication (current epoch + 1) must consume the dirty set
// fn produced. When fn left nothing dirty (e.g. a batch of deletes
// that all missed) the *current* epoch already reflects it, and
// returning that avoids making callers wait for a refresh that may
// never be triggered.
func (m *Manager) IngestEpoch(fn func(*dyngraph.Tracked)) uint64 {
	m.gate.RLock()
	defer m.gate.RUnlock()
	fn(m.store)
	if m.store.DirtyCount() == 0 {
		return m.epoch.Load()
	}
	return m.epoch.Load() + 1
}

// WaitEpoch blocks until the published epoch reaches min, returning
// the epoch observed. timeout <= 0 waits indefinitely; otherwise
// ErrEpochWaitTimeout reports that min did not arrive in time (the
// returned epoch is still the latest observed). Together with the ack
// epoch from the ingest path this gives read-your-writes: wait for
// the ack's epoch, then query the current view.
//
// No ack is ever above the published epoch plus one (IngestEpoch), so
// a larger min is refused at once with ErrEpochWaitTimeout rather than
// held for the timeout. A min of exactly the next epoch is demanded
// (Demand): a running auto-refresher publishes it now instead of at
// its next trigger check.
func (m *Manager) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	e := m.epoch.Load()
	if e >= min {
		return e, nil
	}
	if min > e+1 {
		return e, ErrEpochWaitTimeout
	}
	m.Demand(min)
	var timeC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeC = t.C
	}
	for {
		// Grab the publication channel before re-checking the epoch:
		// a publication after the check closes this channel, so the
		// wakeup cannot be missed.
		ch := m.pubChan()
		if e := m.epoch.Load(); e >= min {
			return e, nil
		}
		select {
		case <-ch:
		case <-timeC:
			return m.epoch.Load(), ErrEpochWaitTimeout
		}
	}
}

// Demand asks the running auto-refresher to publish epoch e as soon as
// it can, rather than at its next trigger check: it raises the wanted
// epoch to e and kicks the refresher without blocking. The refresher
// publishes only while the published epoch is below the wanted one and
// updates are pending, so any number of demands for one epoch cost one
// refresh, and with no refresher running a demand publishes nothing.
func (m *Manager) Demand(e uint64) {
	for {
		w := m.want.Load()
		if w >= e || m.want.CompareAndSwap(w, e) {
			break
		}
	}
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// SetEpochBase raises the published epoch counter to at least e
// without publishing anything — lower values are ignored. It exists
// for crash recovery: a restarted manager starts over at epoch 1, and
// re-basing to (at least) the epoch recorded in the checkpoint keeps
// the epochs clients hold from a previous life monotone with the new
// one, so a pre-crash ack epoch never reads as "already published"
// when it is not.
func (m *Manager) SetEpochBase(e uint64) {
	for {
		cur := m.epoch.Load()
		if cur >= e {
			return
		}
		if m.epoch.CompareAndSwap(cur, e) {
			m.broadcast() // waiters below e are now satisfied
			return
		}
	}
}

// pubChan returns the channel the next publication will close,
// creating it if no publication has installed one yet.
func (m *Manager) pubChan() chan struct{} {
	for {
		if p := m.pubCh.Load(); p != nil {
			return *p
		}
		ch := make(chan struct{})
		if m.pubCh.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// broadcast wakes every WaitEpoch by closing the current publication
// channel and installing a fresh one.
func (m *Manager) broadcast() {
	ch := make(chan struct{})
	if old := m.pubCh.Swap(&ch); old != nil {
		close(*old)
	}
}
