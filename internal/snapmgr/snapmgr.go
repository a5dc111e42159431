// Package snapmgr couples a dirty-tracked dynamic store to an
// epoch-versioned sequence of immutable CSR snapshots — the core of the
// incremental snapshot pipeline. It is RCU-shaped: any number of reader
// goroutines load the current snapshot with one atomic pointer read and
// traverse it without coordination, while a single refresher
// materializes the next snapshot from the store's dirty set
// (csr.Refresh) and publishes it with one atomic pointer store. Old
// snapshots stay valid for the readers still holding them and are
// reclaimed by the garbage collector once the last reference drops —
// there is no explicit release.
package snapmgr

import (
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/csr"
	"snapdyn/internal/dyngraph"
)

// Manager versions snapshots of one tracked store. Current, Epoch,
// Staleness, and Metrics may be called from any goroutine at any time;
// Refresh calls serialize on an internal gate and must not run
// concurrently with store mutations (reading the current snapshot
// during ingest is always safe — that is the point). Mutations applied
// through Ingest take the shared side of that gate, so they serialize
// against Refresh automatically — the contract a background
// auto-refresher (Start/Stop) relies on.
type Manager struct {
	store  *dyngraph.Tracked
	layout Layout
	cur    atomic.Pointer[csr.Graph]
	view   atomic.Pointer[View]
	epoch  atomic.Uint64

	// churn accumulates dirty-vertex counts since the degree layout
	// last computed its permutation; written only under the exclusive
	// gate.
	churn int

	// gate serializes refresh (exclusive) against ingest (shared):
	// concurrent Ingest calls proceed together, none overlaps a
	// Refresh. It also protects the reused FlushKeys buffers, written
	// only under the exclusive side.
	gate  sync.RWMutex
	dirty []uint32
	keys  []uint64

	lastPub atomic.Int64 // UnixNano of the last publication

	// pubCh holds the channel the next publication closes — the
	// broadcast primitive behind WaitEpoch. Lazily created; swapped
	// and closed by broadcast().
	pubCh atomic.Pointer[chan struct{}]

	// want is the highest epoch a waiter has demanded (Demand) and kick
	// the 1-slot channel that wakes the auto-refresher for it.
	want atomic.Uint64
	kick chan struct{}

	metMu sync.Mutex
	met   Metrics // counters only; lag fields filled by Metrics()

	autoMu sync.Mutex
	stopCh chan struct{}
	doneCh chan struct{}
}

// New builds the initial snapshot (a full FromStore materialization of
// everything inserted so far) and returns the manager at epoch 1,
// publishing plain CSR snapshots. NewLayout selects another storage
// format.
func New(workers int, store *dyngraph.Tracked) *Manager {
	return NewLayout(workers, store, LayoutPlain)
}

// Store returns the tracked store the manager materializes.
func (m *Manager) Store() *dyngraph.Tracked { return m.store }

// Current returns the latest published snapshot as a CSR graph: one
// atomic load, never blocking, safe during concurrent Refresh. The
// returned graph is immutable. For the degree layout the graph is
// in permuted id space (use View for the translation tables); under
// LayoutCompressed there is no CSR and Current returns nil — layout-
// aware readers should use View.
func (m *Manager) Current() *csr.Graph { return m.cur.Load() }

// Epoch returns the number of published materializations; it increases
// monotonically, by exactly one per Refresh.
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// Staleness returns the number of vertices whose adjacency changed
// since the snapshot Current returns was cut — the dirty-set size the
// next Refresh will consume.
func (m *Manager) Staleness() int { return m.store.DirtyCount() }

// Refresh materializes and publishes a new snapshot covering every
// update applied so far: it consumes the store's dirty set and key log
// and rebuilds only those adjacencies — under the plain layout only the
// touched keys of the ones the store keeps in keyed order — reusing the
// clean spans of the previous snapshot (falling back to a full rebuild
// when too many arcs would have to be re-enumerated). When nothing
// changed, the previous snapshot is republished unchanged. Concurrent
// Refresh calls serialize; the epoch advances once per call.
func (m *Manager) Refresh(workers int) *csr.Graph {
	m.gate.Lock()
	start := time.Now()
	var logged bool
	m.dirty, m.keys, logged = m.store.FlushKeys(m.dirty[:0], m.keys[:0])
	consumed := len(m.dirty)
	v, st := m.materialize(workers, m.view.Load(), csr.Delta{Dirty: m.dirty, Keys: m.keys, Logged: logged})
	m.view.Store(v)
	m.cur.Store(v.G)
	g := v.G
	m.epoch.Add(1)
	m.lastPub.Store(time.Now().UnixNano())
	m.broadcast()

	// Record metrics before releasing the gate: refreshes serialize on
	// it, so Last* always describes the most recently published epoch
	// (a delayed post-unlock update could land after a later refresh's).
	lat := time.Since(start)
	m.metMu.Lock()
	m.met.Refreshes++
	m.met.LastDirty = consumed
	m.met.LastPatched = st.Patched
	m.met.LastEnumeratedArcs = st.EnumeratedArcs
	m.met.LastLatency = lat
	m.met.TotalLatency += lat
	if lat > m.met.MaxLatency {
		m.met.MaxLatency = lat
	}
	m.metMu.Unlock()
	m.gate.Unlock()
	return g
}
