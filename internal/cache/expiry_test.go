package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pamakv/internal/obs"
)

// TestCoarseExpiryClock: an item expires by the process's coarse clock
// (obs.Unix), served while it reads before the deadline and refused once it
// reads the deadline, and an injected Config.Now wins over that clock.
func TestCoarseExpiryClock(t *testing.T) {
	c := newTestCache(t, 8, &nullPolicy{})
	at := obs.Unix() + 1
	if err := c.SetTTL("k", 100, 1.0, 0, at, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := obs.Unix()
		_, _, hit := c.Get("k", 0, 0, nil)
		after := obs.Unix()
		if before >= at {
			if hit {
				t.Fatalf("served at %d, past its deadline %d on the process clock", before, at)
			}
			break
		}
		if after < at && !hit {
			t.Fatalf("expired at %d, before its deadline %d on the process clock", after, at)
		}
		if time.Now().After(deadline) {
			t.Fatal("the process clock never reached the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if s := c.Stats(); s.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired)
	}

	// An injected test clock wins over the process clock, which reads far
	// past this deadline.
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
	if _, _, hit := c2.Get("k", 0, 0, nil); !hit {
		t.Fatal("injected clock ignored in favor of the process clock")
	}
	fake = 3000
	if _, _, hit := c2.Get("k", 0, 0, nil); hit {
		t.Fatal("item survived past injected-clock expiry")
	}
}

// TestConcurrentTraffic is the -race regression for the read path:
// concurrent getters, a writer churning keys (some with a TTL, so getters
// read the process clock while its goroutine refreshes it), and reporting
// readers (Stats/Introspect/ArbiterValues) all run together; invariants must
// hold and every get must be counted exactly once.
func TestConcurrentTraffic(t *testing.T) {
	pol := &nullPolicy{bounds: []float64{0.01, 5}, nseg: 2, gseg: 2}
	c := newTestCache(t, 16, pol)

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
			switch {
			case i%7 == 0:
				c.Delete(k)
			case i%3 == 0:
				c.SetTTL(k, 64+rng.Intn(800), 0.5, 0, obs.Unix()+60, nil)
			default:
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

func benchGetHitTTL(b *testing.B, now func() int64) {
	c, err := New(Config{
		Geometry:   smallGeom(),
		CacheBytes: 16 * 4096,
		WindowLen:  1 << 50,
		Now:        now,
	}, &nullPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	far := time.Now().Unix() + 1_000_000
	if err := c.SetTTL("k", 100, 1.0, 0, far, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, hit := c.Get("k", 0, 0, nil); !hit {
			b.Fatal("miss")
		}
	}
}

// BenchmarkGetHitTTLSyscallClock: an injected clock that reads the wall
// clock on every expiry check.
func BenchmarkGetHitTTLSyscallClock(b *testing.B) {
	benchGetHitTTL(b, func() int64 { return time.Now().Unix() })
}

// BenchmarkGetHitTTLCoarseClock: the process's coarse clock, an atomic load
// per expiry check.
func BenchmarkGetHitTTLCoarseClock(b *testing.B) { benchGetHitTTL(b, nil) }
