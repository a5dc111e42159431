package csr

import (
	"slices"
	"sort"
	"sync/atomic"

	"snapdyn/internal/edge"
	"snapdyn/internal/par"
	"snapdyn/internal/psort"
)

// RefreshMaxEnumFrac is the fallback rule of the plain delta refresh:
// when the arcs it would have to read back through Store.Neighbors —
// the degree sum of the dirty vertices it cannot patch — exceed this
// fraction of the base snapshot's arcs, it hands over to FromStore. The
// rule counts arcs, not vertices, because enumeration is what the delta
// path pays for and under R-MAT churn the dirty vertices are the hubs:
// 6 % of the vertices own 60 % of the arcs.
//
// Measured on R-MAT scale 16, m = 8n mirrored (1.05 M arcs), unlogged
// dirty sets chosen hubs-first and leaves-first to fixed arc fractions,
// one and two workers: the delta path costs about 3 ms + 30 ms x the
// enumerated fraction (5 ms at 0.10, 8 at 0.25, 16-19 at 0.50, 23-28
// at 0.75, 28-32 at 0.90, 31-33 at 1.00) against a 33-37 ms full
// rebuild, so it wins until nearly everything has to be enumerated
// anyway; past 0.9 the two are the same work and the full rebuild skips
// the copy of the clean degrees. BenchmarkSnapshotRefresh has the
// figures per dirty-set shape, including the served one (rmat-churn),
// where patching keeps the enumerated fraction near 2 % however many
// arcs the dirty hubs own.
const RefreshMaxEnumFrac = 0.9

// RefreshMaxDirtyFrac is the vertex-fraction fallback the permuted and
// compressed delta paths (reorder.RefreshPermuted, compress.Refresh)
// still use: neither can patch, and their crossover was measured on
// uniform dirty sets.
const RefreshMaxDirtyFrac = 0.15

// Delta describes what changed in a store since a base snapshot was
// cut — the output of dyngraph.Tracked.FlushKeys.
type Delta struct {
	// Dirty lists the vertices whose adjacency changed, ascending.
	Dirty []uint32
	// Keys lists the distinct touched (u,v) pairs packed u<<32|v,
	// ascending. It is read only when Logged, and must then cover
	// every mutation of every dirty vertex since base was cut.
	Keys   []uint64
	Logged bool
}

// RefreshStats says how a refresh built its snapshot.
type RefreshStats struct {
	// Patched counts dirty vertices rebuilt from their base span and
	// the read-back state of their touched keys.
	Patched int
	// EnumeratedArcs counts arcs read through Store.Neighbors: the
	// dirty vertices that could not be patched, or every arc when the
	// refresh fell back to a full rebuild.
	EnumeratedArcs int64
}

// keyedView is the optional store surface behind arc-granular refresh;
// it matches dyngraph.KeyedReader without importing it.
type keyedView interface {
	ReadKeys(u edge.ID, keys []edge.ID, cnt, ts []uint32) (deg int, keyed bool)
}

// Refresh is RefreshDelta for a caller that has only the dirty set: no
// key log, so every dirty vertex is re-enumerated.
func Refresh(workers int, base *Graph, s storeView, dirty []uint32) *Graph {
	g, _ := RefreshDelta(workers, base, s, Delta{Dirty: dirty})
	return g
}

// RefreshDelta materializes a new CSR snapshot of s, reusing the
// previous snapshot base: a parallel prefix sum over per-vertex degree
// deltas lays out the new arrays and maximal runs of clean vertices are
// moved with bulk copies. A dirty vertex is rebuilt one of two ways.
// When its span in base was cut in keyed order (Graph.keyed — carried
// explicitly, never inferred from the span: an array-mode span that
// happens to ascend still has per-tuple labels), the store still keeps
// it in keyed order, and the key log is complete, the new span is the
// base span merged with the read-back (multiplicity, label) of only its
// touched keys. The merge is state-based: it asks what each touched key
// holds now, not what was done to it, so the order a concurrent batch
// applied in is irrelevant and a key touched for nothing is harmless.
// Every other dirty vertex — array-mode, migrated since base, unlogged,
// a store without keyed order — is re-enumerated through the store, as
// is a patched span whose length disagrees with the store's degree.
//
// The cost is O(n) for the offset pass, O(m) of memmove, one locked
// read-back of O(k log d) per patched vertex with k touched keys,
// and O(arcs) of store enumeration for the rest. When that rest exceeds
// RefreshMaxEnumFrac of base's arcs, or base is nil or has a different
// vertex count, the result is a full FromStore rebuild. An empty dirty
// set returns base itself (snapshots are immutable, so sharing is
// safe). Either way the output is arc-for-arc identical to FromStore.
//
// Like FromStore, RefreshDelta must not run concurrently with mutations
// of s; base and the returned graph are never written.
func RefreshDelta(workers int, base *Graph, s storeView, d Delta) (*Graph, RefreshStats) {
	return refresh(workers, base, s, d, RefreshMaxEnumFrac)
}

// How a dirty vertex is rebuilt, decided in the count pass.
const (
	enumerate      = iota // through Store.Neighbors; not in keyed order now
	enumerateKeyed        // through Store.Neighbors; in keyed order now
	patch                 // base span merged with the touched keys' state
)

// refresh is RefreshDelta with the fallback fraction as a parameter, so
// tests can force the delta path.
func refresh(workers int, base *Graph, s storeView, d Delta, maxEnumFrac float64) (*Graph, RefreshStats) {
	n := s.NumVertices()
	if base == nil || base.N != n {
		return rebuild(workers, s)
	}
	dirty := d.Dirty
	if len(dirty) == 0 {
		return base, RefreshStats{}
	}
	ks, _ := s.(keyedView)
	canPatch := d.Logged && ks != nil && base.keyed != nil
	var keys, cnt, ts []uint32 // neighbor, multiplicity, label per logged key
	if canPatch {
		k := len(d.Keys)
		buf := make([]uint32, 3*k)
		keys, cnt, ts = buf[:k], buf[k:2*k], buf[2*k:]
		for i, key := range d.Keys {
			keys[i] = uint32(key)
		}
	}

	// Count pass: clean degrees come from the old offsets; each dirty
	// vertex costs one locked store call, which for a patch candidate
	// is also the read-back of its touched keys.
	counts := make([]int64, n+1)
	par.ForBlock(workers, n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			counts[u] = base.Offsets[u+1] - base.Offsets[u]
		}
	})
	mode := make([]uint8, len(dirty))
	var enumArcs atomic.Int64
	par.ForDynamic(workers, len(dirty), 128, func(lo, hi int) {
		var enum int64
		for i := lo; i < hi; i++ {
			u := edge.ID(dirty[i])
			var deg int
			var keyed bool
			switch {
			case ks == nil:
				deg = s.Degree(u)
			case canPatch && base.keyedAt(u):
				klo, khi := keyRange(d.Keys, u)
				if deg, keyed = ks.ReadKeys(u, keys[klo:khi], cnt[klo:khi], ts[klo:khi]); keyed {
					mode[i] = patch
				}
			default:
				if deg, keyed = ks.ReadKeys(u, nil, nil, nil); keyed {
					mode[i] = enumerateKeyed
				}
			}
			counts[u] = int64(deg)
			if mode[i] != patch {
				enum += int64(deg)
			}
		}
		enumArcs.Add(enum)
	})
	if float64(enumArcs.Load()) > maxEnumFrac*float64(len(base.Adj)) {
		return rebuild(workers, s)
	}

	total := psort.ExclusiveScan(workers, counts)
	g := &Graph{
		N:       n,
		Offsets: counts,
		Adj:     make([]uint32, total),
		TS:      make([]uint32, total),
	}
	if ks != nil {
		g.keyed = make([]uint64, (n+63)/64)
		copy(g.keyed, base.keyed)
		for i, u := range dirty {
			if mode[i] == enumerate {
				g.keyed[u>>6] &^= 1 << (u & 63)
			} else {
				g.keyed[u>>6] |= 1 << (u & 63)
			}
		}
	}

	// Scatter pass over vertex chunks: within a chunk, maximal clean
	// runs between dirty vertices map to contiguous spans of both the
	// old and the new arrays and move with one copy each; dirty
	// vertices are patched or re-enumerated.
	var patched atomic.Int64
	par.ForDynamic(workers, n, 512, func(lo, hi int) {
		di := sort.Search(len(dirty), func(i int) bool { return int(dirty[i]) >= lo })
		for u := lo; u < hi; {
			v := hi
			if di < len(dirty) && int(dirty[di]) < hi {
				v = int(dirty[di])
			}
			if u < v {
				srcLo, srcHi := base.Offsets[u], base.Offsets[v]
				dstLo := g.Offsets[u]
				copy(g.Adj[dstLo:dstLo+srcHi-srcLo], base.Adj[srcLo:srcHi])
				copy(g.TS[dstLo:dstLo+srcHi-srcLo], base.TS[srcLo:srcHi])
			}
			if v == hi {
				break
			}
			p, end := g.Offsets[v], g.Offsets[v+1]
			ok := false
			if mode[di] == patch {
				klo, khi := keyRange(d.Keys, edge.ID(v))
				bAdj, bTS := base.Neighbors(edge.ID(v))
				ok = patchSpan(g.Adj[p:end], g.TS[p:end], bAdj, bTS, keys[klo:khi], cnt[klo:khi], ts[klo:khi])
				if ok {
					patched.Add(1)
				} else {
					enumArcs.Add(end - p)
				}
			}
			if !ok {
				s.Neighbors(edge.ID(v), func(w edge.ID, t uint32) bool {
					if p == end {
						// Degree grew between the offset pass and this
						// enumeration: the contract (no concurrent
						// mutation) was violated. Clamp rather than
						// corrupt the neighboring vertex's span.
						return false
					}
					g.Adj[p] = w
					g.TS[p] = t
					p++
					return true
				})
			}
			di++
			u = v + 1
		}
	})
	return g, RefreshStats{Patched: int(patched.Load()), EnumeratedArcs: enumArcs.Load()}
}

// rebuild is the full-rebuild outcome of a refresh.
func rebuild(workers int, s storeView) (*Graph, RefreshStats) {
	g := FromStore(workers, s)
	return g, RefreshStats{EnumeratedArcs: g.NumEdges()}
}

// keyRange returns the index range of u's keys in the packed, sorted
// key log.
func keyRange(keys []uint64, u edge.ID) (lo, hi int) {
	lo, _ = slices.BinarySearch(keys, uint64(u)<<32)
	hi = lo
	for hi < len(keys) && edge.ID(keys[hi]>>32) == u {
		hi++
	}
	return lo, hi
}

// patchSpan writes into dst the base span with every touched key's arcs
// replaced by cnt[i] copies labeled ts[i], in ascending key order. Runs
// of untouched arcs move with one copy each. It reports false, leaving
// dst partly written, when the result does not fill dst exactly — the
// base span, the log and the store's degree disagree, and the caller
// re-enumerates.
func patchSpan(dstAdj, dstTS, baseAdj, baseTS []uint32, keys, cnt, ts []uint32) bool {
	w, r := 0, 0
	for i, k := range keys {
		j, _ := slices.BinarySearch(baseAdj[r:], k)
		j += r
		c := int(cnt[i])
		if w+(j-r)+c > len(dstAdj) {
			return false
		}
		w += copy(dstAdj[w:], baseAdj[r:j])
		copy(dstTS[w-(j-r):], baseTS[r:j])
		for ; c > 0; c-- {
			dstAdj[w], dstTS[w] = k, ts[i]
			w++
		}
		for j < len(baseAdj) && baseAdj[j] == k {
			j++
		}
		r = j
	}
	if w+len(baseAdj)-r != len(dstAdj) {
		return false
	}
	copy(dstAdj[w:], baseAdj[r:])
	copy(dstTS[w:], baseTS[r:])
	return true
}
