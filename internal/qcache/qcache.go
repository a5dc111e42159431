// Package qcache is the snapshot-identity result cache behind the
// serving layer: immutable query replies (the per-kind aggregates every
// reply is built from — reached counts, depths, distances, component
// census, connectivity verdicts) keyed by (snapshot identity, query
// kind, arguments), with singleflight coalescing so N concurrent
// identical queries execute the kernel once and every follower shares
// the one reply. Entries hold the reply, not the kernel's per-vertex
// output: nothing is copied out of the kernel scratch on a miss.
//
// Invalidation is free by construction. The RCU snapshot pipeline
// publishes each materialization as a fresh immutable View and — the
// load-bearing half — republishes the *identical* pointer on a no-op
// refresh. The cache therefore keys its live generation by snapshot
// identity (the published pointer), never by epoch number: an epoch
// bump without a content change (no-op refresh) keeps every entry
// alive, while a real refresh swaps the pointer and the whole old
// generation becomes unreachable and dies with its snapshot (RCU by
// GC — no invalidation walk, no epoch bookkeeping, no stale reads).
//
// The hit path is allocation-free: generation match is a pointer
// compare, lookup is one struct-keyed map read under an RWMutex, and
// the cached Value is returned by value. Misses run the caller's
// compute function exactly once per key per generation; concurrent
// callers for the same key block on the leader's completion channel
// and share its Value (and its error, should the leader fail).
//
// Capacity is a byte budget charged EntryBytes per resident entry, so
// a budget B holds about B/EntryBytes entries (64 MiB: 262144).
// Inserting past the budget evicts least-recently-stamped ready
// entries; a budget smaller than one entry stores nothing (results are
// still handed to their waiters).
package qcache

import (
	"sync"
	"sync/atomic"
)

// Kind is the query type component of a cache key.
type Kind uint8

const (
	KindBFS Kind = iota
	KindSSSP
	KindConnected
	KindComponents
	KindClustering
	KindKHop
	KindPageRank
)

// Key identifies one cached query within a generation: the query kind
// plus its packed arguments (source vertex, target vertex, bucket
// width — interpretation is per kind and owned by the caller).
type Key struct {
	Kind Kind
	A, B uint64
}

// Value is one immutable cached reply: the aggregates every reply is
// built from, interpreted per kind by the caller.
type Value struct {
	N1, N2 int64
	F1, F2 float64
	Flag   bool
}

// EntryBytes is the budget charge of one resident entry: the entry
// struct (80 B), its completion channel (96 B), and its share of the
// map (a 32 B key-and-pointer slot at the table's load factor and
// growth slack, about 70 B) — 245 B of live heap per entry measured at
// 1e3 and 1e5 entries on amd64, rounded up to 256.
const EntryBytes = 256

// Counters is a point-in-time view of cache activity. Hits are
// lookups served from a ready entry, Coalesced are followers that
// waited on an in-flight leader and shared its result (counted
// separately from hits: they saved a kernel execution but not the
// latency), Misses are leader executions, Evictions budget-forced
// removals. Bytes is the live generation's current budget charge
// (EntryBytes per resident entry).
type Counters struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	Bytes     int64
}

// Cache owns the live generation and the activity counters. All
// methods are safe for concurrent use and nil-safe: a nil *Cache is
// the disabled cache (ForView returns nil, Counters returns zeros),
// so callers gate on construction, not on every call site.
type Cache struct {
	budget int64
	gen    atomic.Pointer[Gen]
	clock  atomic.Uint64 // LRU stamp source

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

// New returns a cache with the given byte budget (about
// budget/EntryBytes entries), or nil (the disabled cache) when
// budget <= 0.
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	return &Cache{budget: budget}
}

// Counters returns a point-in-time view of cache activity.
func (c *Cache) Counters() Counters {
	if c == nil {
		return Counters{}
	}
	var bytes int64
	if g := c.gen.Load(); g != nil {
		g.mu.RLock()
		bytes = g.bytes
		g.mu.RUnlock()
	}
	return Counters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     bytes,
	}
}

// Current returns the live generation (nil on a nil or never-used
// cache) — the observation hook the bit-identity hammer verifies
// entries through: it recomputes each entry's kernel on the
// generation's pinned snapshot and compares the reply aggregates.
func (c *Cache) Current() *Gen {
	if c == nil {
		return nil
	}
	return c.gen.Load()
}

// Gen is one cache generation: the entries computed against exactly
// one published snapshot. Its identity is the snapshot the owning
// executor pinned when the generation was created — either one
// pointer (ID) or, for the sharded fleet, one pinned snapshot per
// shard (IDs). A generation is never invalidated in place: when the
// pipeline publishes a different snapshot, lookups stop matching, a
// fresh generation replaces it, and the old one is garbage once its
// last in-flight reader drops it.
type Gen struct {
	c     *Cache
	id    any
	ids   []any
	epoch uint64

	mu      sync.RWMutex
	entries map[Key]*entry
	bytes   int64
}

// entry is one keyed slot: in-flight until done is closed, ready (or
// failed) after.
type entry struct {
	seq   atomic.Uint64 // last-use stamp, for eviction
	done  chan struct{}
	val   Value
	err   error
	ready bool
}

// ID returns the single-snapshot identity the generation serves (nil
// for a multi-identity generation).
func (g *Gen) ID() any { return g.id }

// IDs returns the multi-part identity (the fleet's per-shard pinned
// snapshots), nil for a single-snapshot generation.
func (g *Gen) IDs() []any { return g.ids }

// Epoch returns the epoch observed when the generation was installed
// (a tiebreaker against stale writers, not an invalidation signal).
func (g *Gen) Epoch() uint64 { return g.epoch }

// ForView returns the live generation for the snapshot identity id
// (compared by ==; pass the published view pointer), installing a
// fresh one when the published snapshot changed. epoch orders racing
// installers: a reader still holding an older snapshot never clobbers
// the generation a newer one installed — it gets a private generation
// instead, correct (entries match its own pinned snapshot) but
// unshared, which is fine because stale pins are one refresh wide.
func (c *Cache) ForView(id any, epoch uint64) *Gen {
	if c == nil {
		return nil
	}
	g := c.gen.Load()
	if g != nil && g.id == id {
		return g
	}
	ng := &Gen{c: c, id: id, epoch: epoch, entries: make(map[Key]*entry)}
	for {
		if g != nil && g.epoch > epoch {
			return ng // newer snapshot already installed; stay private
		}
		if c.gen.CompareAndSwap(g, ng) {
			return ng
		}
		g = c.gen.Load()
		if g != nil && g.id == id {
			return g
		}
	}
}

// ForViews is ForView for multi-part identities: the generation
// matches while every pinned snapshot is identical (elementwise ==).
// ids is copied on install, so callers may reuse their buffer.
func (c *Cache) ForViews(ids []any, epoch uint64) *Gen {
	if c == nil {
		return nil
	}
	g := c.gen.Load()
	if g.matchIDs(ids) {
		return g
	}
	ng := &Gen{c: c, ids: append([]any(nil), ids...), epoch: epoch, entries: make(map[Key]*entry)}
	for {
		if g != nil && g.epoch > epoch {
			return ng
		}
		if c.gen.CompareAndSwap(g, ng) {
			return ng
		}
		g = c.gen.Load()
		if g.matchIDs(ids) {
			return g
		}
	}
}

// matchIDs reports whether the generation's multi-part identity equals
// ids elementwise.
func (g *Gen) matchIDs(ids []any) bool {
	if g == nil || len(g.ids) != len(ids) || g.ids == nil {
		return false
	}
	for i := range ids {
		if g.ids[i] != ids[i] {
			return false
		}
	}
	return true
}

// Lookup returns the ready entry for k, if any — the allocation-free
// hit path. It does not wait on in-flight leaders (that is Do's job):
// a caller that misses here proceeds to Do, which re-checks under the
// write path.
func (g *Gen) Lookup(k Key) (Value, bool) {
	if g == nil {
		return Value{}, false
	}
	g.mu.RLock()
	e := g.entries[k]
	ok := e != nil && e.ready && e.err == nil // flags written under g.mu
	g.mu.RUnlock()
	if !ok {
		return Value{}, false
	}
	// val is never written again once ready; observing ready under the
	// lock orders this read after the leader's write.
	e.seq.Store(g.c.clock.Add(1))
	g.c.hits.Add(1)
	return e.val, true
}

// Do returns the cached value for k, computing it with fn on a miss.
// Exactly one caller per key runs fn (the leader); concurrent callers
// for the same key wait for the leader and share its value and error.
// A failed compute is not cached: the error is delivered to the
// leader's cohort and the key is released for the next attempt.
func (g *Gen) Do(k Key, fn func() (Value, error)) (Value, error) {
	if g == nil {
		return fn()
	}
	g.mu.Lock()
	if e := g.entries[k]; e != nil {
		ready := e.ready // e.ready/e.val/e.err are written under g.mu
		g.mu.Unlock()
		if ready {
			e.seq.Store(g.c.clock.Add(1))
			g.c.hits.Add(1)
			return e.val, nil // failed computes are never left resident
		}
		// Follower: the leader's close(done) happens after it filled
		// val/err, so the reads below are ordered.
		<-e.done
		g.c.coalesced.Add(1)
		return e.val, e.err
	}
	e := &entry{done: make(chan struct{})}
	g.entries[k] = e
	g.mu.Unlock()

	val, err := fn()
	e.seq.Store(g.c.clock.Add(1))

	g.mu.Lock()
	e.val, e.err = val, err
	e.ready = true
	switch {
	case err != nil:
		delete(g.entries, k) // release the key; next caller retries
	case EntryBytes > g.c.budget:
		delete(g.entries, k) // budget below one entry: serve, don't store
	default:
		g.bytes += EntryBytes
		g.evictOver()
	}
	g.mu.Unlock()
	close(e.done)
	g.c.misses.Add(1)
	return val, err
}

// evictOver removes least-recently-stamped ready entries until the
// generation fits the budget. Called with g.mu held. The scan is
// O(entries) per eviction round, paid on the miss path only — misses
// just ran a full graph kernel, so the scan is noise.
func (g *Gen) evictOver() {
	for g.bytes > g.c.budget {
		var victim Key
		var ve *entry
		var vseq uint64
		for k, e := range g.entries {
			if !e.ready {
				continue // never evict in-flight leaders
			}
			if s := e.seq.Load(); ve == nil || s < vseq {
				victim, ve, vseq = k, e, s
			}
		}
		if ve == nil {
			return
		}
		delete(g.entries, victim)
		g.bytes -= EntryBytes
		g.c.evictions.Add(1)
	}
}

// Len returns the number of resident entries (ready and in-flight).
func (g *Gen) Len() int {
	if g == nil {
		return 0
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// Range calls fn for every ready entry; fn returning false stops the
// walk. Range
// snapshots the entry set under the read lock, then runs fn unlocked,
// so a slow verifier never stalls inserts.
func (g *Gen) Range(fn func(Key, Value) bool) {
	if g == nil {
		return
	}
	type kv struct {
		k Key
		v Value
	}
	g.mu.RLock()
	snap := make([]kv, 0, len(g.entries))
	for k, e := range g.entries {
		if e.ready && e.err == nil {
			snap = append(snap, kv{k, e.val})
		}
	}
	g.mu.RUnlock()
	for _, p := range snap {
		if !fn(p.k, p.v) {
			return
		}
	}
}
