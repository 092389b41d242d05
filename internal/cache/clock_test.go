package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestMaintainerDrainsAndShutsDownCleanly covers the maintainer lifecycle
// (the name is kept from when it also drained access rings): Start and Stop
// are idempotent, the coarse clock is warm in between and cold after, and
// Stop leaves no goroutine behind.
func TestMaintainerDrainsAndShutsDownCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	c := newTestCache(t, 8, &nullPolicy{})
	c.StartMaintainer(time.Millisecond)
	c.StartMaintainer(time.Millisecond) // idempotent while running
	if c.nowCache.Load() == 0 {
		t.Fatal("coarse clock cold while the maintainer runs")
	}

	c.StopMaintainer()
	c.StopMaintainer() // idempotent after stop
	if got := c.nowCache.Load(); got != 0 {
		t.Fatalf("coarse clock not reset on maintainer stop: %d", got)
	}

	deadline := time.Now().Add(2 * time.Second)
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
	c := newTestCache(t, 8, &nullPolicy{})
	// An item whose TTL has already passed in wall time. With a coarse
	// clock deliberately frozen before the deadline, a GET must still serve
	// it — the proof that the cached second, not a wall-clock read, is being
	// consulted. (No maintainer runs, so nothing refreshes the frozen value.)
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
		Geometry:   smallGeom(),
		CacheBytes: 8 * 4096,
		WindowLen:  1 << 50,
		Now:        func() int64 { return fake },
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

// TestCoarseClockBelongsToMaintainer: no operation writes the coarse clock.
// Without a maintainer it stays cold under traffic, so no timestamp is left
// behind to freeze TTL checks; with one, it advances on its own.
func TestCoarseClockBelongsToMaintainer(t *testing.T) {
	c := newTestCache(t, 8, &nullPolicy{})
	wall := time.Now().Unix()
	if err := c.SetTTL("dead", 100, 1.0, 0, wall-1, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := c.Set("live", 100, 1.0, 0, nil); err != nil {
			t.Fatal(err)
		}
		c.Get("live", 0, 0, nil)
	}
	if got := c.nowCache.Load(); got != 0 {
		t.Fatalf("traffic left %d in the coarse clock of an engine with no maintainer", got)
	}
	if _, _, hit := c.Get("dead", 0, 0, nil); hit {
		t.Fatal("expired item served by an engine with no maintainer")
	}

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
}

// TestConcurrentTraffic is the -race regression for the read path:
// concurrent getters, a writer churning keys, a maintainer, and reporting
// readers (Stats/Introspect/ArbiterValues) all run together; invariants must
// hold and every get must be counted exactly once.
func TestConcurrentTraffic(t *testing.T) {
	pol := &nullPolicy{bounds: []float64{0.01, 5}, nseg: 2, gseg: 2}
	c := newTestCache(t, 16, pol)
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
	if st := c.Stats(); st.Gets != want {
		t.Fatalf("stats counted %d gets, %d were issued", st.Gets, want)
	}
}

// ---- Benches: the coarse clock keeps the wall-clock read off the GET path ----

func benchGetHitTTL(b *testing.B, warmClock bool) {
	c, err := New(Config{
		Geometry:   smallGeom(),
		CacheBytes: 16 * 4096,
		WindowLen:  1 << 50,
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

// BenchmarkGetHitTTLSyscallClock: with no maintainer every expiry check
// reads the wall clock.
func BenchmarkGetHitTTLSyscallClock(b *testing.B) { benchGetHitTTL(b, false) }

// BenchmarkGetHitTTLCoarseClock: a maintainer keeps the coarse second fresh,
// so no expiry check reads the wall clock.
func BenchmarkGetHitTTLCoarseClock(b *testing.B) { benchGetHitTTL(b, true) }
