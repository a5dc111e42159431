package dyngraph

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"snapdyn/internal/edge"
	"snapdyn/internal/par"
)

// keyLogCap bounds the touched-key log: 64 Ki (u,v) pairs, 512 KiB. A
// served refresh window touches ~8 k keys; a bulk load or a recovery
// replay overflows it at once, is dropped, and costs the next refresh
// nothing it did not already pay.
const keyLogCap = 1 << 16

// Tracked decorates any Store with change tracking, the front end of
// the incremental snapshot pipeline. Every mutation records its source
// vertex in a lock-free dirty bitmap, so a snapshot materialization
// rebuilds only the adjacencies that changed since the previous one
// (csr.Refresh) instead of re-enumerating all of them (csr.FromStore);
// beside the bitmap it logs the touched (u,v) key in a bounded log, so
// a vertex whose store keeps it in keyed order (KeyedReader: a hub's
// sorted blocks or treap) is rebuilt from the handful of keys that changed rather than
// by walking everything it owns (csr.RefreshDelta). The log is capped
// at keyLogCap pairs; a window that overflows it reports logged ==
// false from FlushKeys and is refreshed vertex-granular.
//
// Key and mark are published *after* the mutation completes, together,
// under the shared side of a lock whose exclusive side Flush holds: a
// flush sees both or neither. A Flush that misses an in-flight
// mutation's key and mark reads the pre-mutation adjacency at worst,
// and both land in the next window — a mutation is never lost; the
// only slack is a redundant rebuild of a vertex the materialization
// happened to read fresh. Single-op deletions that remove nothing
// record nothing.
//
// The per-update cost is the lock's two atomic adds, one slot
// reservation and one atomic word-OR (once per batch for ApplyBatch,
// bar the ORs), small next to the store's own per-vertex locking.
type Tracked struct {
	Store
	keyed KeyedReader // the store's keyed read-back; nil when it has none

	words []uint64     // dirty bitmap, bit u set = u's adjacency changed
	count atomic.Int64 // set bits (vertices, not mutations)
	epoch atomic.Uint64

	// win orders recording against Flush: mutators record under RLock,
	// Flush swaps the window under Lock.
	win    sync.RWMutex
	log    []uint64     // keyLogCap slots of packed u<<32|v
	logLen atomic.Int64 // slots reserved this window; > keyLogCap = overflowed
}

var _ Store = (*Tracked)(nil)

// NewTracked wraps base with change tracking. The decorator is
// transparent: Name, Degree, Neighbors, and the rest pass through.
func NewTracked(base Store) *Tracked {
	t := &Tracked{
		Store: base,
		words: make([]uint64, (base.NumVertices()+63)/64),
		log:   make([]uint64, keyLogCap),
	}
	t.keyed, _ = base.(KeyedReader)
	return t
}

// mark records u's adjacency as changed (atomic word-OR, idempotent).
func (t *Tracked) mark(u edge.ID) {
	w, mask := u>>6, uint64(1)<<(u&63)
	if atomic.OrUint64(&t.words[w], mask)&mask == 0 {
		t.count.Add(1)
	}
}

// reserve claims k log slots and returns the first, or -1 when the
// window has overflowed (the reservation still counts, so the overflow
// is sticky until Flush). Called with win held shared.
func (t *Tracked) reserve(k int) int {
	if t.logLen.Load() > keyLogCap {
		return -1
	}
	end := t.logLen.Add(int64(k))
	if end > keyLogCap {
		return -1
	}
	return int(end) - k
}

// record publishes one completed mutation of (u,v): key, then mark.
func (t *Tracked) record(u, v edge.ID) {
	t.win.RLock()
	if p := t.reserve(1); p >= 0 {
		t.log[p] = uint64(u)<<32 | uint64(v)
	}
	t.mark(u)
	t.win.RUnlock()
}

// Insert implements Store.
func (t *Tracked) Insert(u, v edge.ID, ts uint32) {
	t.Store.Insert(u, v, ts)
	t.record(u, v)
}

// Delete implements Store; only successful removals are recorded.
func (t *Tracked) Delete(u, v edge.ID) bool {
	ok := t.Store.Delete(u, v)
	if ok {
		t.record(u, v)
	}
	return ok
}

// DeleteTuple implements Store; only successful removals are recorded.
func (t *Tracked) DeleteTuple(u, v edge.ID, ts uint32) bool {
	ok := t.Store.DeleteTuple(u, v, ts)
	if ok {
		t.record(u, v)
	}
	return ok
}

// ApplyBatch implements Store: the inner store applies the batch with
// its own strategy (semi-sort, partitioning, ...), then every (u,v) of
// the batch is logged and every source vertex marked, the marks in
// parallel (an idempotent atomic word-OR) so the ingest path has no
// serial tail. Failed deletions record conservatively — a spurious key
// costs one read-back that finds nothing changed, a spurious dirty bit
// one redundant rebuild.
func (t *Tracked) ApplyBatch(workers int, batch []edge.Update) {
	t.Store.ApplyBatch(workers, batch)
	t.win.RLock()
	defer t.win.RUnlock()
	if p := t.reserve(len(batch)); p >= 0 {
		for i := range batch {
			t.log[p+i] = uint64(batch[i].U)<<32 | uint64(batch[i].V)
		}
	}
	par.ForDynamic(workers, len(batch), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.mark(batch[i].U)
		}
	})
}

// ReadKeys implements KeyedReader by forwarding to the wrapped store;
// over a store without keyed order it reports the degree and false.
func (t *Tracked) ReadKeys(u edge.ID, keys []edge.ID, cnt, ts []uint32) (int, bool) {
	if t.keyed == nil {
		return t.Store.Degree(u), false
	}
	return t.keyed.ReadKeys(u, keys, cnt, ts)
}

// DirtyCount returns the number of vertices whose adjacency changed
// since the last Flush.
func (t *Tracked) DirtyCount() int { return int(t.count.Load()) }

// Epoch returns the monotone materialization counter: the number of
// Flush calls so far.
func (t *Tracked) Epoch() uint64 { return t.epoch.Load() }

// Dirty appends the current dirty vertices to dst in ascending order
// without consuming them, for inspection and staleness heuristics. It
// tolerates concurrent mutators (marks landing mid-scan may or may not
// appear).
func (t *Tracked) Dirty(dst []uint32) []uint32 {
	for wi := range t.words {
		dst = appendWordBits(dst, uint32(wi)<<6, atomic.LoadUint64(&t.words[wi]))
	}
	return dst
}

// Flush consumes the window: it appends the dirty vertices to dst in
// ascending order, clears them, discards the key log, and advances the
// epoch. Flush may run concurrently with mutators (a mutation recorded
// after the swap belongs to the next window — never lost); concurrent
// Flush calls partition the dirty set between themselves (the snapshot
// manager serializes them anyway).
func (t *Tracked) Flush(dst []uint32) []uint32 {
	dst, _, _ = t.flush(dst, nil, false)
	return dst
}

// FlushKeys is Flush that also hands out the window's key log: the
// distinct (u,v) keys mutated since the previous flush, packed
// u<<32|v, appended to keys in ascending order (so one vertex's keys
// are contiguous and ascend by neighbor). logged reports whether the
// log is complete; when the window overflowed keyLogCap it is false,
// no keys are returned, and only the dirty set describes the window.
// When logged, every mutation of every returned dirty vertex since the
// previous flush has its key in the list.
func (t *Tracked) FlushKeys(dst []uint32, keys []uint64) (dirty []uint32, touched []uint64, logged bool) {
	dirty, touched, logged = t.flush(dst, keys, true)
	window := touched[len(keys):]
	slices.Sort(window)
	return dirty, touched[:len(keys)+len(slices.Compact(window))], logged
}

// flush swaps the window out under the exclusive lock, so no mutation
// is recorded half in this window and half in the next.
func (t *Tracked) flush(dst []uint32, keys []uint64, wantKeys bool) ([]uint32, []uint64, bool) {
	t.win.Lock()
	defer t.win.Unlock()
	taken := 0
	for wi := range t.words {
		w := atomic.SwapUint64(&t.words[wi], 0)
		if w == 0 {
			continue
		}
		taken += bits.OnesCount64(w)
		dst = appendWordBits(dst, uint32(wi)<<6, w)
	}
	if taken > 0 {
		t.count.Add(int64(-taken))
	}
	n := t.logLen.Swap(0)
	logged := n <= keyLogCap
	if logged && wantKeys {
		keys = append(keys, t.log[:n]...)
	}
	t.epoch.Add(1)
	return dst, keys, logged
}

// appendWordBits appends base+i for every set bit i of w, ascending.
func appendWordBits(dst []uint32, base uint32, w uint64) []uint32 {
	for w != 0 {
		dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
		w &= w - 1
	}
	return dst
}
