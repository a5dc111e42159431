package snapmgr

import (
	"time"

	"snapdyn/internal/dyngraph"
)

// Policy configures the background auto-refresher: when a dirty-vertex
// threshold or a staleness age is crossed, the refresher materializes
// and publishes a new snapshot on its own, so serving layers treat
// refresh as a policy rather than a call site. The zero value refreshes
// whenever any update is pending.
//
// The refresher checks the two triggers on an interval derived from
// MaxAge (MaxAge/8, floored at 1ms, or 5ms when MaxAge is unset),
// counted from its last publication. So a trigger refresh starts up to
// one interval after its trigger fires, and comes at least one interval
// after the refresh before it. A reader waiting for the next epoch
// (WaitEpoch on an ingest ack) does not wait for the check: it demands
// that epoch (Demand), and the refresher publishes it at once.
type Policy struct {
	// MaxDirty triggers a refresh as soon as Staleness() reaches this
	// many dirty vertices. <= 0 disables the dirty trigger (unless
	// MaxAge is also unset, in which case any dirt triggers).
	MaxDirty int
	// MaxAge triggers a refresh once this much time has passed since
	// the last publication while updates are pending. <= 0 disables the
	// age trigger.
	MaxAge time.Duration
	// Workers is the parallelism of each background refresh; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// poll returns the trigger-check interval.
func (p Policy) poll() time.Duration {
	if p.MaxAge > 0 {
		if d := p.MaxAge / 8; d > time.Millisecond {
			return d
		}
		return time.Millisecond
	}
	return 5 * time.Millisecond
}

// Metrics is a consistent snapshot of the manager's refresh behavior:
// how often snapshots were published, what each refresh cost, and how
// far the published snapshot lags the live store right now.
type Metrics struct {
	// Refreshes counts every publication (manual and automatic),
	// including the initial materialization.
	Refreshes uint64
	// AutoRefreshes counts publications initiated by the background
	// refresher; DirtyTriggered and AgeTriggered split them by which
	// policy trigger fired (dirty wins ties), DemandTriggered counts
	// those a waiter asked for (Demand), so AutoRefreshes is their sum.
	AutoRefreshes   uint64
	DirtyTriggered  uint64
	AgeTriggered    uint64
	DemandTriggered uint64
	// LastDirty is the dirty-vertex count the most recent refresh
	// consumed — the delta-rebuild work it did.
	LastDirty int
	// LastPatched is how many of those vertices the plain layout
	// rebuilt from their touched keys alone, and LastEnumeratedArcs the
	// arcs it read back through the store for the rest (every arc on a
	// full rebuild) — csr.RefreshStats of the most recent refresh; zero
	// under the other layouts.
	LastPatched        int
	LastEnumeratedArcs int64
	// LastLatency, MaxLatency, and TotalLatency describe the wall-clock
	// cost of refreshes (flush + materialize + publish).
	LastLatency  time.Duration
	MaxLatency   time.Duration
	TotalLatency time.Duration
	// Epoch is the published snapshot version; Staleness the pending
	// dirty-vertex count and Age the time since the last publication —
	// together the epoch lag between Current() and the live store.
	Epoch     uint64
	Staleness int
	Age       time.Duration
	// SnapshotBytes is the in-memory footprint of the published snapshot
	// in its storage layout (View.SizeBytes), and Format that layout's
	// name — the per-format memory accounting operators read off /stats.
	SnapshotBytes int64
	Format        string
	// CacheHits..CacheBytes describe the serving layer's
	// snapshot-identity result cache (internal/qcache); all zero when
	// caching is disabled. The manager itself never touches them — the
	// executor overlays its cache counters so one Metrics value carries
	// the whole pipeline's health.
	CacheHits      uint64
	CacheMisses    uint64
	CacheCoalesced uint64
	CacheEvictions uint64
	CacheBytes     int64
}

// Ingest runs fn(store) under the ingest side of the refresh gate:
// any number of Ingest calls may run concurrently (the store's own
// mutation methods are concurrency-safe), but none overlaps a Refresh.
// Routing all mutations through Ingest is what makes a background
// auto-refresher safe; mutating the store directly remains fine only
// when the caller serializes against Refresh some other way.
func (m *Manager) Ingest(fn func(*dyngraph.Tracked)) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	fn(m.store)
}

// Start launches the background auto-refresher under p. It reports
// false (and does nothing) when one is already running. While the
// refresher runs, all store mutations must go through Ingest — the
// refresher takes the write side of the same gate, preserving the
// single-writer refresh contract without a stop-the-world ingest.
func (m *Manager) Start(p Policy) bool {
	m.autoMu.Lock()
	defer m.autoMu.Unlock()
	if m.stopCh != nil {
		return false
	}
	if p.MaxDirty <= 0 && p.MaxAge <= 0 {
		p.MaxDirty = 1 // zero policy: refresh whenever anything is dirty
	}
	stop, done := make(chan struct{}), make(chan struct{})
	m.stopCh, m.doneCh = stop, done
	go m.autoLoop(p, stop, done)
	return true
}

// Stop halts the background refresher and waits for it to exit. Updates
// still pending stay pending until the next Refresh (manual or a later
// Start). Stop is a no-op when no refresher is running.
func (m *Manager) Stop() {
	m.autoMu.Lock()
	stop, done := m.stopCh, m.doneCh
	m.stopCh, m.doneCh = nil, nil
	m.autoMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// autoLoop is the background refresher. It refreshes when a waiter
// demands an epoch not yet published while updates are pending, or
// when a policy trigger holds at a check, and accounts the cause.
// Refresh itself records the latency metrics shared with manual
// refreshes.
func (m *Manager) autoLoop(p Policy, stop, done chan struct{}) {
	defer close(done)
	interval := p.poll()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		var byDemand, byDirty bool
		select {
		case <-stop:
			return
		case <-m.kick:
			// A kick whose epoch a tick or a manual refresh already
			// published is spent.
			if m.Epoch() >= m.want.Load() || m.Staleness() == 0 {
				continue
			}
			byDemand = true
		case <-tick.C:
			dirty := m.Staleness()
			if dirty == 0 {
				continue
			}
			byDirty = p.MaxDirty > 0 && dirty >= p.MaxDirty
			byAge := p.MaxAge > 0 && time.Since(time.Unix(0, m.lastPub.Load())) >= p.MaxAge
			if !byDirty && !byAge {
				continue
			}
		}
		m.Refresh(p.Workers)
		// Count the next check from this publication: a check right
		// behind a refresh would publish the dirt that arrived during
		// it, a refresh storm that costs ingest more than readers gain.
		tick.Reset(interval)
		m.metMu.Lock()
		m.met.AutoRefreshes++
		switch {
		case byDemand:
			m.met.DemandTriggered++
		case byDirty:
			m.met.DirtyTriggered++
		default:
			m.met.AgeTriggered++
		}
		m.metMu.Unlock()
	}
}

// Metrics returns a snapshot of the refresh counters plus the current
// epoch lag (pending dirty count and time since the last publication).
func (m *Manager) Metrics() Metrics {
	m.metMu.Lock()
	out := m.met
	m.metMu.Unlock()
	out.Epoch = m.Epoch()
	out.Staleness = m.Staleness()
	out.Age = time.Since(time.Unix(0, m.lastPub.Load()))
	if v := m.View(); v != nil {
		out.SnapshotBytes = v.SizeBytes()
	}
	out.Format = m.layout.String()
	return out
}
