package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pamakv/internal/accessbuf"
	"pamakv/internal/kv"
)

// newBatchedCache builds an engine with the lock-amortized read path on.
func newBatchedCache(t *testing.T, slabs, ringCap int, pol Policy) *Cache {
	t.Helper()
	c, err := New(Config{
		Geometry:     smallGeom(),
		CacheBytes:   int64(slabs) * 4096,
		WindowLen:    1 << 50,
		AccessBuffer: ringCap,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchedModeDefersThenApplies: a fast-path hit leaves policy and window
// state untouched until a drain applies it.
func TestBatchedModeDefersThenApplies(t *testing.T) {
	pol := &nullPolicy{nseg: 2}
	c := newBatchedCache(t, 8, 64, pol)
	if !c.Batched() {
		t.Fatal("AccessBuffer > 0 but Batched() = false")
	}
	if err := c.Set("k", 100, 1.0, 0, nil); err != nil {
		t.Fatal(err)
	}
	clock0 := c.Clock()
	for i := 0; i < 5; i++ {
		if _, _, hit := c.Get("k", 0, 0, nil); !hit {
			t.Fatal("get missed")
		}
	}
	if got := len(pol.hits); got != 0 {
		t.Fatalf("policy saw %d hits before any drain", got)
	}
	if c.Clock() != clock0 {
		t.Fatalf("clock advanced on the fast path: %d -> %d", clock0, c.Clock())
	}
	if got := c.buffered(); got != 5 {
		t.Fatalf("buffered = %d, want 5", got)
	}
	st := c.AccessBufStats() // reporting path drains
	if st.Drained != 5 || st.StaleRefs != 0 {
		t.Fatalf("drained %d records (%d stale), want 5 (0)", st.Drained, st.StaleRefs)
	}
	if got := len(pol.hits); got != 5 {
		t.Fatalf("policy saw %d hits after drain, want 5", got)
	}
	if c.Clock() != clock0+5 {
		t.Fatalf("clock after drain = %d, want %d", c.Clock(), clock0+5)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRingFillDrainsInline: pushing past the ring capacity forces the
// producer to drain, so nothing is ever lost and stats see every access.
func TestRingFillDrainsInline(t *testing.T) {
	pol := &nullPolicy{}
	c := newBatchedCache(t, 8, 8, pol) // tiny rings
	if err := c.Set("k", 100, 1.0, 0, nil); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if _, _, hit := c.Get("k", 0, 0, nil); !hit {
			t.Fatal("get missed")
		}
	}
	st := c.AccessBufStats()
	if st.Drained != n {
		t.Fatalf("drained %d records, want %d", st.Drained, n)
	}
	if st.FullDrains == 0 {
		t.Fatal("500 hits through one 8-slot ring never forced a full-ring drain")
	}
	if got := len(pol.hits); got != n {
		t.Fatalf("policy saw %d hits, want %d", got, n)
	}
	if s := c.Stats(); s.Gets != n+0 || s.Hits != n {
		t.Fatalf("stats gets/hits = %d/%d, want %d/%d", s.Gets, s.Hits, n, n)
	}
}

// TestBatchedConvergesToImmediate runs the same seeded get-through workload
// against an immediate-mode and a batched-mode engine under real eviction
// pressure and requires the hit ratios to agree within epsilon = 0.5% —
// the tentpole's stated policy-equivalence bound for deferred recency.
func TestBatchedConvergesToImmediate(t *testing.T) {
	run := func(ringCap int) float64 {
		pol := &nullPolicy{bounds: []float64{0.01, 5}, nseg: 2, gseg: 2}
		c, err := New(Config{
			Geometry:     smallGeom(),
			CacheBytes:   8 * 4096, // well under the working set: evictions matter
			WindowLen:    997,
			AccessBuffer: ringCap,
		}, pol)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		zipf := rand.NewZipf(rng, 1.2, 1, 599)
		for op := 0; op < 60_000; op++ {
			k := fmt.Sprintf("k%d", zipf.Uint64())
			if _, _, hit := c.Get(k, 0, 0, nil); !hit {
				size := 64 + int(zipf.Uint64())%440
				pen := 0.001 * float64(1+rng.Intn(1000))
				if err := c.Set(k, size, pen, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		return float64(st.Hits) / float64(st.Gets)
	}
	immediate := run(0)
	batched := run(256)
	if diff := immediate - batched; diff > 0.005 || diff < -0.005 {
		t.Fatalf("hit ratios diverged: immediate %.4f vs batched %.4f (|diff| > 0.5%%)",
			immediate, batched)
	}
}

// TestDrainSkipsStaleRefs injects records whose items died between access
// and drain — delete, eviction-to-ghost, and pool reuse — and requires the
// drain to skip every one via the CAS incarnation check.
func TestDrainSkipsStaleRefs(t *testing.T) {
	pol := &nullPolicy{gseg: 2}
	c := newBatchedCache(t, 8, 64, pol)
	if err := c.Set("dead", 100, 1.0, 0, nil); err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	it := c.index.Get(kv.HashString("dead"), "dead")
	cas := it.CAS
	c.mu.Unlock()

	// The key dies; its item is reset into the pool (ghost regions get a
	// separate check below) and may be reincarnated as another key.
	c.Delete("dead")
	if err := c.Set("reuse", 100, 1.0, 0, nil); err != nil {
		t.Fatal(err)
	}

	// A record from before the delete arrives late (the unpublished-slot
	// race): the drain must not touch whatever the pointer now holds.
	c.rings[0].Push(accessbuf.Record{It: it, CAS: cas, Pen: 1.0})
	st := c.AccessBufStats()
	if st.StaleRefs != 1 {
		t.Fatalf("StaleRefs = %d, want 1", st.StaleRefs)
	}
	if got := len(pol.hits); got != 0 {
		t.Fatalf("policy saw %d hits from a stale record", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Ghosted item: evicted entries keep their CAS token, so the Ghost flag
	// must catch them.
	if err := c.Set("ghosted", 100, 2.0, 0, nil); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	git := c.index.Get(kv.HashString("ghosted"), "ghosted")
	gcas := git.CAS
	c.evictResidentLocked(git, &c.classes[git.Class].subs[git.Sub])
	if !git.Ghost {
		t.Fatal("eviction with ghost regions on did not ghost the item")
	}
	c.mu.Unlock()
	c.rings[0].Push(accessbuf.Record{It: git, CAS: gcas, Pen: 2.0})
	st = c.AccessBufStats()
	if st.StaleRefs != 2 {
		t.Fatalf("StaleRefs = %d, want 2", st.StaleRefs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerDrainsAndShutsDownCleanly covers the maintainer lifecycle:
// it must drain idle rings without any mutating op, and Stop must not leak
// its goroutine (satellite c).
func TestMaintainerDrainsAndShutsDownCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	pol := &nullPolicy{}
	c := newBatchedCache(t, 8, 1024, pol)
	if err := c.Set("k", 100, 1.0, 0, nil); err != nil {
		t.Fatal(err)
	}
	c.StartMaintainer(time.Millisecond)
	c.StartMaintainer(time.Millisecond) // idempotent while running

	for i := 0; i < 10; i++ {
		c.Get("k", 0, 0, nil)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.buffered() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintainer never drained the rings")
		}
		time.Sleep(time.Millisecond)
	}

	c.StopMaintainer()
	c.StopMaintainer() // idempotent after stop
	if got := c.nowCache.Load(); got != 0 {
		t.Fatalf("coarse clock not reset on maintainer stop: %d", got)
	}

	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoarseExpiryClock verifies the expired() precedence chain: injected
// Config.Now wins; otherwise a warm coarse clock is consulted without any
// wall-clock read; a cold cache (0) falls back to the real clock.
func TestCoarseExpiryClock(t *testing.T) {
	pol := &nullPolicy{}
	c := newBatchedCache(t, 8, 64, pol)
	// An item whose TTL has already passed in wall time. With a coarse
	// clock deliberately frozen before the deadline, the fast path must
	// still serve it — the proof that the cached second, not a wall-clock
	// read, is being consulted. (Fast-path hits never drain, so nothing
	// refreshes the frozen value mid-test.)
	now := time.Now().Unix()
	if err := c.SetTTL("k", 100, 1.0, 0, now-10, nil); err != nil {
		t.Fatal(err)
	}
	c.nowCache.Store(now - 100)
	if _, _, hit := c.Get("k", 0, 0, nil); !hit {
		t.Fatal("coarse clock ignored: expiry check read the wall clock")
	}
	// Cold cache (0) falls back to the real clock: now the item is dead.
	c.nowCache.Store(0)
	if _, _, hit := c.Get("k", 0, 0, nil); hit {
		t.Fatal("expired item served through the real-time fallback")
	}
	if s := c.Stats(); s.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired)
	}

	// An injected test clock bypasses the cache entirely.
	fake := int64(1000)
	c2, err := New(Config{
		Geometry:     smallGeom(),
		CacheBytes:   8 * 4096,
		WindowLen:    1 << 50,
		AccessBuffer: 64,
		Now:          func() int64 { return fake },
	}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SetTTL("k", 100, 1.0, 0, 2000, nil); err != nil {
		t.Fatal(err)
	}
	c2.nowCache.Store(5000) // must be ignored: cfg.Now wins
	if _, _, hit := c2.Get("k", 0, 0, nil); !hit {
		t.Fatal("injected clock ignored in favor of coarse cache")
	}
	fake = 3000
	if _, _, hit := c2.Get("k", 0, 0, nil); hit {
		t.Fatal("item survived past injected-clock expiry")
	}
}

// TestCoarseClockBelongsToMaintainer: drains never write the coarse clock.
// Without a maintainer it stays cold under SET-only traffic (every SET
// drains), so no timestamp is left behind to freeze TTL checks on the GET
// fast path, which never drains; with one, it advances with no drain at all.
func TestCoarseClockBelongsToMaintainer(t *testing.T) {
	c := newBatchedCache(t, 8, 64, &nullPolicy{})
	wall := time.Now().Unix()
	if err := c.SetTTL("dead", 100, 1.0, 0, wall-1, nil); err != nil {
		t.Fatal(err)
	}
	c.Get("live", 0, 0, nil) // a miss: nothing is left in the rings
	for i := 0; i < 200; i++ {
		if err := c.Set("live", 100, 1.0, 0, nil); err != nil {
			t.Fatal(err)
		}
		c.Get("live", 0, 0, nil) // a record for the next SET's drain
	}
	if st := c.AccessBufStats(); st.Drains < 100 {
		t.Fatalf("SET traffic drained %d times, want one per SET", st.Drains)
	}
	if got := c.nowCache.Load(); got != 0 {
		t.Fatalf("a drain left %d in the coarse clock of an engine with no maintainer", got)
	}
	if _, _, hit := c.Get("dead", 0, 0, nil); hit {
		t.Fatal("expired item served by an engine with no maintainer")
	}

	drains := c.AccessBufStats().Drains
	c.StartMaintainer(time.Millisecond)
	defer c.StopMaintainer()
	c.nowCache.Store(1) // a second long gone
	deadline := time.Now().Add(2 * time.Second)
	for c.nowCache.Load() < wall {
		if time.Now().After(deadline) {
			t.Fatal("maintainer never advanced the coarse clock")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.AccessBufStats().Drains; got != drains {
		t.Fatalf("the clock advanced through %d drains, want none", got-drains)
	}
}

// TestConcurrentBatchedTraffic is the -race regression for the deferred
// counters: concurrent getters on the fast path, a writer churning keys, a
// maintainer, and reporting readers (Stats/Introspect/AccessBufStats) all
// run together; invariants must hold and no access may be lost.
func TestConcurrentBatchedTraffic(t *testing.T) {
	pol := &nullPolicy{bounds: []float64{0.01, 5}, nseg: 2, gseg: 2}
	c := newBatchedCache(t, 16, 128, pol)
	c.StartMaintainer(time.Millisecond)
	defer c.StopMaintainer()

	const nKeys = 200
	for i := 0; i < nKeys; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), 64+i, 0.5, 0, nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var gets [4]uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Get(fmt.Sprintf("k%d", rng.Intn(nKeys)), 0, 0, nil)
				gets[g]++
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("k%d", rng.Intn(nKeys))
			if i%7 == 0 {
				c.Delete(k)
			} else {
				c.Set(k, 64+rng.Intn(800), 0.5, 0, nil)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Stats()
			_ = c.Introspect()
			_ = c.AccessBufStats()
			_, _, _ = c.ArbiterValues()
		}
	}()

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, g := range gets {
		want += g
	}
	if st := c.Stats(); st.Gets < want {
		t.Fatalf("stats lost gets: counted %d, issued at least %d", st.Gets, want)
	}
}

// ---- Benches: the coarse clock keeps the wall-clock read off the GET path ----

func benchGetHitTTL(b *testing.B, ringCap int, warmClock bool) {
	c, err := New(Config{
		Geometry:     smallGeom(),
		CacheBytes:   16 * 4096,
		WindowLen:    1 << 50,
		AccessBuffer: ringCap,
	}, &nullPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	far := time.Now().Unix() + 1_000_000
	if err := c.SetTTL("k", 100, 1.0, 0, far, nil); err != nil {
		b.Fatal(err)
	}
	if warmClock {
		c.StartMaintainer(time.Millisecond)
		defer c.StopMaintainer()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, hit := c.Get("k", 0, 0, nil); !hit {
			b.Fatal("miss")
		}
	}
}

// BenchmarkGetHitTTLSyscallClock is the old path: every expiry check reads
// the wall clock.
func BenchmarkGetHitTTLSyscallClock(b *testing.B) { benchGetHitTTL(b, 0, false) }

// BenchmarkGetHitTTLCoarseClock is the batched path with a maintainer
// keeping the coarse second fresh: no wall-clock read per check.
func BenchmarkGetHitTTLCoarseClock(b *testing.B) { benchGetHitTTL(b, 4096, true) }
