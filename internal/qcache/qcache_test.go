package qcache

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c2 := New(0); c2 != nil {
		t.Fatalf("New(0) = %v, want nil", c2)
	}
	if g := c.ForView("id", 1); g != nil {
		t.Fatalf("nil cache ForView = %v, want nil", g)
	}
	if g := c.ForViews([]any{"a"}, 1); g != nil {
		t.Fatalf("nil cache ForViews = %v, want nil", g)
	}
	if got := c.Counters(); got != (Counters{}) {
		t.Fatalf("nil cache Counters = %+v, want zeros", got)
	}
	if c.Current() != nil {
		t.Fatal("nil cache Current != nil")
	}

	// A nil generation passes queries through untouched.
	var g *Gen
	if _, ok := g.Lookup(Key{}); ok {
		t.Fatal("nil gen Lookup hit")
	}
	ran := false
	v, err := g.Do(Key{}, func() (Value, error) { ran = true; return Value{N1: 7}, nil })
	if err != nil || v.N1 != 7 || !ran {
		t.Fatalf("nil gen Do = (%+v, %v), ran=%v", v, err, ran)
	}
	if g.Len() != 0 {
		t.Fatal("nil gen Len != 0")
	}
	g.Range(func(Key, Value) bool { t.Fatal("nil gen Range called fn"); return false })
}

// TestHitMissAndSharedBacking pins the miss-then-hit cycle: the leader
// computes once, and every later Lookup or Do returns the very reply
// it stored, charged EntryBytes.
func TestHitMissAndSharedBacking(t *testing.T) {
	c := New(1 << 20)
	id := new(int)
	g := c.ForView(id, 1)
	k := Key{Kind: KindBFS, A: 3}

	if _, ok := g.Lookup(k); ok {
		t.Fatal("lookup hit on empty generation")
	}
	want := Value{N1: 3, N2: 2, F1: 0.5, F2: 1.5, Flag: true}
	calls := 0
	v, err := g.Do(k, func() (Value, error) {
		calls++
		return want, nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("Do = err %v, calls %d", err, calls)
	}
	if v != want {
		t.Fatalf("leader's value = %+v, want the computed %+v", v, want)
	}

	hit, ok := g.Lookup(k)
	if !ok {
		t.Fatal("lookup miss after successful Do")
	}
	if hit != want {
		t.Fatalf("hit = %+v, want the cached %+v", hit, want)
	}

	// Do on a ready key never re-executes.
	v2, err := g.Do(k, func() (Value, error) {
		t.Fatal("Do re-executed a ready key")
		return Value{}, nil
	})
	if err != nil || v2 != want {
		t.Fatal("ready-key Do did not return the cached value")
	}

	ctr := c.Counters()
	if ctr.Misses != 1 || ctr.Hits != 2 {
		t.Fatalf("counters = %+v, want 1 miss / 2 hits", ctr)
	}
	if ctr.Bytes != EntryBytes {
		t.Fatalf("bytes = %d, want one entry's charge %d", ctr.Bytes, EntryBytes)
	}
}

func TestSingleflightCoalescing(t *testing.T) {
	c := New(1 << 20)
	g := c.ForView(new(int), 1)
	k := Key{Kind: KindSSSP, A: 9, B: 4}

	const followers = 8
	gate := make(chan struct{})
	entered := make(chan struct{})
	var calls atomic.Int64
	want := Value{N1: 3, N2: 14}

	var wg sync.WaitGroup
	results := make([]Value, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.Do(k, func() (Value, error) {
				close(entered)
				calls.Add(1)
				<-gate // hold the flight open until all followers queue
				return want, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	<-entered
	// Hold the flight open long enough for the followers to queue on
	// the leader's done channel (they are not blocked on the mutex —
	// the leader computes outside it — so they reach the wait quickly).
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != want {
			t.Fatalf("caller %d got %+v, want the leader's %+v", i, v, want)
		}
	}
	// A follower that queued mid-flight counts as coalesced; one that
	// arrived after completion counts as a hit. Either way the kernel
	// ran once and everyone shared its result.
	ctr := c.Counters()
	if ctr.Misses != 1 || ctr.Hits+ctr.Coalesced != followers {
		t.Fatalf("counters = %+v, want 1 miss and %d hits+coalesced", ctr, followers)
	}
	if ctr.Coalesced == 0 {
		t.Fatalf("counters = %+v, want at least one coalesced follower", ctr)
	}
}

func TestErrorsSharedButNotCached(t *testing.T) {
	c := New(1 << 20)
	g := c.ForView(new(int), 1)
	k := Key{Kind: KindConnected, A: 1, B: 2}
	boom := errors.New("boom")

	gate := make(chan struct{})
	entered := make(chan struct{})
	var leaderErr, followerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, leaderErr = g.Do(k, func() (Value, error) {
			close(entered)
			<-gate // hold the flight open while the follower queues
			return Value{}, boom
		})
	}()
	<-entered
	go func() {
		defer wg.Done()
		// Either coalesces onto the failing flight (shares boom) or
		// arrives after the key was released and leads its own
		// successful compute — both are correct.
		_, followerErr = g.Do(k, func() (Value, error) { return Value{Flag: true}, nil })
	}()
	time.Sleep(10 * time.Millisecond) // let the follower queue on the flight
	close(gate)
	wg.Wait()

	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader error = %v, want %v", leaderErr, boom)
	}
	if followerErr != nil && !errors.Is(followerErr, boom) {
		t.Fatalf("follower error = %v, want %v or nil", followerErr, boom)
	}
	if errors.Is(followerErr, boom) && g.Len() != 0 {
		t.Fatalf("failed compute left %d resident entries", g.Len())
	}
	// The key is released: a later caller retries and can succeed.
	v, err := g.Do(k, func() (Value, error) { return Value{Flag: true}, nil })
	if err != nil || !v.Flag {
		t.Fatalf("retry after failure = (%+v, %v)", v, err)
	}
}

func TestEvictionUnderBudget(t *testing.T) {
	// Room for exactly 3 entries: a budget short of a 4th charge.
	c := New(4*EntryBytes - 1)
	g := c.ForView(new(int), 1)

	for i := range 3 {
		put(g, Key{Kind: KindComponents, A: uint64(i)}, Value{N1: int64(i)})
	}
	if ctr := c.Counters(); ctr.Bytes != 3*EntryBytes || ctr.Evictions != 0 {
		t.Fatalf("counters after 3 stores = %+v, want %d bytes, 0 evictions", ctr, 3*EntryBytes)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	// Touch entry 0 so it is most-recent; inserting a 4th must evict 1.
	if _, ok := g.Lookup(Key{Kind: KindComponents, A: 0}); !ok {
		t.Fatal("warm lookup missed")
	}
	put(g, Key{Kind: KindComponents, A: 3}, Value{N1: 3})
	if g.Len() != 3 {
		t.Fatalf("Len after insert = %d, want 3", g.Len())
	}
	if _, ok := g.Lookup(Key{Kind: KindComponents, A: 1}); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := g.Lookup(Key{Kind: KindComponents, A: 0}); !ok {
		t.Fatal("recently-touched entry was evicted")
	}
	ctr := c.Counters()
	if ctr.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", ctr.Evictions)
	}
	if ctr.Bytes != 3*EntryBytes {
		t.Fatalf("bytes = %d, want %d", ctr.Bytes, 3*EntryBytes)
	}

	// A miss past the budget evicts the least-recent ready entry too.
	if _, err := g.Do(Key{Kind: KindBFS, A: 4}, func() (Value, error) { return Value{N1: 4}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Lookup(Key{Kind: KindComponents, A: 2}); ok {
		t.Fatal("least-recently-used entry survived a miss's eviction")
	}
	if ctr := c.Counters(); ctr.Evictions != 2 || ctr.Bytes != 3*EntryBytes || g.Len() != 3 {
		t.Fatalf("after miss: counters %+v, len %d; want 2 evictions, 3 entries", ctr, g.Len())
	}

	// A budget below one entry's charge serves results but never
	// stores them.
	tiny := New(EntryBytes - 1)
	tg := tiny.ForView(new(int), 1)
	k := Key{Kind: KindBFS, A: 99}
	v, err := tg.Do(k, func() (Value, error) { return Value{N1: 99}, nil })
	if err != nil || v.N1 != 99 {
		t.Fatalf("sub-entry budget Do = (%+v, %v)", v, err)
	}
	put(tg, Key{Kind: KindBFS, A: 100}, Value{N1: 100})
	if _, ok := tg.Lookup(k); ok || tg.Len() != 0 || tiny.Counters().Bytes != 0 {
		t.Fatalf("sub-entry budget stored %d entries (%d bytes)", tg.Len(), tiny.Counters().Bytes)
	}
}

// TestEvictionAmortised fills a generation well past its budget and
// bounds what a miss pays for eviction: once full, a scan of the
// generation drops its oldest eighth, so only about one miss in
// capacity/8 scans at all (about 8 entries scanned per miss amortised,
// not a full scan per miss), the oldest entries are the ones that go,
// and the generation never exceeds its budget.
func TestEvictionAmortised(t *testing.T) {
	const capacity = 4096
	c := New(capacity * EntryBytes)
	g := c.ForView(new(int), 1)
	for i := range capacity {
		put(g, Key{Kind: KindSSSP, A: uint64(i)}, Value{N1: int64(i)})
	}
	if ctr := c.Counters(); ctr.Evictions != 0 || g.Len() != capacity {
		t.Fatalf("filled to the budget: %d entries, %d evictions", g.Len(), ctr.Evictions)
	}
	const misses = 10 * capacity
	scans, prev := 0, uint64(0)
	for i := capacity; i < capacity+misses; i++ {
		put(g, Key{Kind: KindSSSP, A: uint64(i)}, Value{N1: int64(i)})
		ev := c.Counters().Evictions
		if ev != prev {
			scans++
			if ev-prev != (capacity+1)/8 {
				t.Fatalf("miss %d evicted %d entries at once, want %d", i, ev-prev, (capacity+1)/8)
			}
		}
		prev = ev
		if g.Len() > capacity {
			t.Fatalf("miss %d: %d entries resident, budget holds %d", i, g.Len(), capacity)
		}
	}
	if maxScans := misses/(capacity/8) + 1; scans > maxScans {
		t.Fatalf("%d of %d misses scanned the generation, want <= %d", scans, misses, maxScans)
	}
	if scanned := float64(scans) * (capacity + 1) / misses; scanned > 9 {
		t.Fatalf("%.1f entries scanned per miss, want about 8", scanned)
	}
	// LRU order held: every survivor is newer than every evicted entry.
	oldest := capacity + misses - g.Len()
	if _, ok := g.Lookup(Key{Kind: KindSSSP, A: uint64(oldest - 1)}); ok {
		t.Fatalf("entry %d, older than %d survivors, is still resident", oldest-1, g.Len())
	}
	for _, i := range []int{oldest, capacity + misses - 1} {
		if _, ok := g.Lookup(Key{Kind: KindSSSP, A: uint64(i)}); !ok {
			t.Fatalf("recent entry %d was evicted", i)
		}
	}
}

func TestSelectNth(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100, 1000} {
		for _, k := range []int{0, n / 3, n / 2, n - 1} {
			s := make([]uint64, n)
			for i := range s {
				s[i] = uint64((i*7919 + 13) % (n + 3)) // distinct for these n, some shuffled
			}
			sorted := slices.Clone(s)
			slices.Sort(sorted)
			if got := selectNth(s, k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: got %d, want %d", n, k, got, sorted[k])
			}
		}
	}
	dup := []uint64{5, 1, 5, 5, 1, 3, 5, 1}
	sorted := slices.Sorted(slices.Values(dup))
	for k := range dup {
		if got := selectNth(slices.Clone(dup), k); got != sorted[k] {
			t.Fatalf("duplicates k=%d: got %d, want %d", k, got, sorted[k])
		}
	}
}

func TestGenerationIdentity(t *testing.T) {
	c := New(1 << 20)
	v1, v2 := new(int), new(int)

	g1 := c.ForView(v1, 1)
	put(g1, Key{Kind: KindBFS, A: 1}, Value{N1: 1})

	// Same pointer (no-op refresh republished it, epoch bumped): the
	// generation — and its entries — survive.
	if g := c.ForView(v1, 2); g != g1 {
		t.Fatal("identical view pointer did not reuse the generation")
	}
	if _, ok := g1.Lookup(Key{Kind: KindBFS, A: 1}); !ok {
		t.Fatal("entry lost across no-op identity reuse")
	}

	// Different pointer (real refresh): fresh generation, old entries
	// unreachable through the cache.
	g2 := c.ForView(v2, 3)
	if g2 == g1 {
		t.Fatal("new view pointer reused the old generation")
	}
	if _, ok := g2.Lookup(Key{Kind: KindBFS, A: 1}); ok {
		t.Fatal("entry leaked across a real refresh")
	}
	if c.Current() != g2 {
		t.Fatal("Current is not the fresh generation")
	}

	// A stale reader (older epoch, old pointer) gets a private
	// generation and never clobbers the fresher installed one.
	gStale := c.ForView(v1, 1)
	if gStale == g1 || gStale == g2 {
		t.Fatal("stale reader shared an installed generation")
	}
	if c.Current() != g2 {
		t.Fatal("stale reader clobbered the live generation")
	}
}

func TestForViewsElementwiseIdentity(t *testing.T) {
	c := New(1 << 20)
	a, b, b2 := new(int), new(int), new(int)

	buf := []any{a, b}
	g1 := c.ForViews(buf, 2)
	put(g1, Key{Kind: KindSSSP, A: 5}, Value{N2: 5})

	// Caller reuses its buffer with identical pinned views: same gen.
	buf[0], buf[1] = a, b
	if g := c.ForViews(buf, 4); g != g1 {
		t.Fatal("identical pinned views did not match the generation")
	}

	// One shard refreshed: the whole generation is replaced.
	buf[1] = b2
	g2 := c.ForViews(buf, 5)
	if g2 == g1 {
		t.Fatal("changed shard view reused the old generation")
	}
	if _, ok := g2.Lookup(Key{Kind: KindSSSP, A: 5}); ok {
		t.Fatal("entry leaked across a shard refresh")
	}

	// The generation copied the ids: mutating the caller's buffer
	// afterwards must not corrupt matching.
	buf[0] = b2
	buf[1] = a
	if g := c.ForViews([]any{a, b2}, 6); g != g2 {
		t.Fatal("generation identity corrupted by caller buffer reuse")
	}
}

func TestLookupIsAllocationFree(t *testing.T) {
	c := New(1 << 20)
	g := c.ForView(new(int), 1)
	k := Key{Kind: KindBFS, A: 7}
	put(g, k, Value{N1: 9, N2: 4, F1: 0.25, Flag: true})

	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := g.Lookup(k); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocated %.1f objects/op, want 0", allocs)
	}
}

// TestFollowerSharedReplyNoAlloc pins the coalesced-follower cost: a
// Do that lands on an already-resolved entry returns the shared value
// without allocating — no closure evaluation beyond the one the caller
// already built.
func TestFollowerSharedReplyNoAlloc(t *testing.T) {
	c := New(1 << 20)
	g := c.ForView(&struct{}{}, 1)
	k := Key{Kind: KindBFS, A: 9}
	want := Value{N1: 4, N2: 3}
	if _, err := g.Do(k, func() (Value, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}

	fn := func() (Value, error) { t.Error("resolved entry recomputed"); return Value{}, nil }
	var got Value
	if n := testing.AllocsPerRun(50, func() {
		v, err := g.Do(k, fn)
		if err != nil {
			t.Fatal(err)
		}
		got = v
	}); n > 0 {
		t.Fatalf("follower on resolved entry allocates %.1f objects/op, want 0", n)
	}
	if got != want {
		t.Fatalf("follower reply = %+v, want the leader's %+v", got, want)
	}
}

// put caches val for k through the miss path.
func put(g *Gen, k Key, val Value) {
	g.Do(k, func() (Value, error) { return val, nil })
}
