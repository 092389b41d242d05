package shard

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/valuetable"
)

// TestConcurrentMixedOps hammers a shard group from many goroutines with the
// full mixed operation set. It exists to run under -race: correctness of
// individual operations is the oracle tests' job; this test asserts the
// group survives contention with coherent per-key values and invariants.
func TestConcurrentMixedOps(t *testing.T) {
	cfg := testCfg()
	cfg.Stale = valuetable.New(1<<16, 0)
	g, err := New(cfg, 4, pamaFactory)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		ops     = 3000
		keys    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				switch rng.Intn(12) {
				case 0, 1, 2: // set a self-describing value
					v := []byte("val:" + key)
					if err := g.Set(key, len(v)+len(key), 0.01, 7, v); err != nil {
						t.Errorf("set %q: %v", key, err)
						return
					}
				case 3: // conditional stores; preconditions may race, errors are fine
					v := []byte("val:" + key)
					_ = g.SetMode(key, cache.ModeAdd, 0, len(v)+len(key), 0.01, 7, 0, v)
				case 4:
					g.Delete(key)
				case 5: // numeric key namespace for deltas
					nk := fmt.Sprintf("n%d", rng.Intn(keys))
					v := []byte("100")
					if err := g.Set(nk, len(v)+len(nk), 0.01, 0, v); err != nil {
						t.Errorf("set %q: %v", nk, err)
						return
					}
					if _, err := g.Delta(nk, 1, rng.Intn(2) == 0); err != nil &&
						err != cache.ErrNotStored && err != cache.ErrNotNumeric {
						t.Errorf("delta %q: %v", nk, err)
						return
					}
				case 6:
					g.Touch(key, 0)
				case 7: // stale reads race evictions; any outcome but a panic is fine
					if val, _, ok := g.GetStale(key, nil); ok && len(val) == 0 {
						t.Errorf("GetStale(%q) served empty value", key)
						return
					}
				case 8:
					if _, _, cas, hit := g.GetWithCAS(key, nil); hit && cas == 0 {
						t.Errorf("gets %q hit with zero cas", key)
						return
					}
				default:
					// Values are self-describing, so a torn or misrouted
					// read is detectable despite the races.
					if val, flags, hit := g.Get(key, 0, 0, nil); hit {
						if string(val) != "val:"+key || flags != 7 {
							t.Errorf("get %q -> %q flags %d", key, val, flags)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Sets == 0 || st.Gets == 0 {
		t.Fatalf("vacuous run: %+v", st)
	}
	// The numeric namespace must still hold parseable integers.
	for i := 0; i < keys; i++ {
		if val, _, hit := g.Get(fmt.Sprintf("n%d", i), 0, 0, nil); hit {
			if _, err := strconv.ParseUint(string(val), 10, 64); err != nil {
				t.Fatalf("numeric key n%d corrupted to %q", i, val)
			}
		}
	}
}

// TestConcurrentFlushAndWrites races Flush against writers: the group must
// stay invariant-clean and every surviving value coherent.
func TestConcurrentFlushAndWrites(t *testing.T) {
	g, err := New(testCfg(), 2, pamaFactory)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("k%d", (w*1000+i)%64)
				v := []byte("val:" + key)
				_ = g.Set(key, len(v)+len(key), 0.01, 0, v)
				if val, _, hit := g.Get(key, 0, 0, nil); hit && string(val) != "val:"+key {
					t.Errorf("get %q -> %q", key, val)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			g.Flush()
		}
	}()
	wg.Wait()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPrefetch races Prefetch against stores that evict on every
// call and reads of the same keys on one group. It exists to run under
// -race: a prefetch that read engine state outside the engine lock, or wrote
// any, shows up here. Every shard must have been handed keys, and the values
// read back must be the ones stored.
func TestConcurrentPrefetch(t *testing.T) {
	g, err := New(testCfg(), 4, pamaFactory)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000 // several times what 16 slabs of small items hold
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			batch := make([]string, 0, 80)
			for i := 0; i < 3000; i++ {
				k := key(rng.Intn(keys))
				switch {
				case w < 2: // prefetchers: windows of up to 80 keys, so some span two
					batch = batch[:0]
					for n := rng.Intn(80); n >= 0; n-- {
						batch = append(batch, key(rng.Intn(keys)))
					}
					g.Prefetch(batch)
				case rng.Intn(4) > 0:
					v := []byte("val:" + k + ":" + strings.Repeat("x", rng.Intn(200)))
					if err := g.Set(k, len(v)+len(k), 0.01, 0, v); err != nil {
						t.Errorf("set %q: %v", k, err)
						return
					}
				default:
					if val, _, hit := g.Get(k, 0, 0, nil); hit && !strings.HasPrefix(string(val), "val:"+k+":") {
						t.Errorf("get %q -> %.40q", k, val)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, e := range g.Engines() {
		if st := e.Stats(); st.Prefetched == 0 || st.Evictions == 0 {
			t.Fatalf("shard %d: %d keys prefetched, %d evictions: the race was not run", i, st.Prefetched, st.Evictions)
		}
	}
	if st := g.Stats(); st.PrefetchResident == 0 || st.PrefetchResident > st.Prefetched {
		t.Fatalf("group prefetch counters: %d resident of %d", st.PrefetchResident, st.Prefetched)
	}
}
