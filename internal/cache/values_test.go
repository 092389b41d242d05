package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pamakv/internal/kv"
)

// selfValue builds a self-describing value of n >= 8 bytes: an 8-byte seed
// followed by bytes derived from it, so a reader with no model can tell a
// whole value from one torn or overwritten by another item's store.
func selfValue(seed uint64, n int) []byte {
	v := make([]byte, n)
	binary.LittleEndian.PutUint64(v, seed)
	x := seed
	for i := 8; i < n; i++ {
		if i%8 == 0 {
			x = kv.Mix64(x)
		}
		v[i] = byte(x >> (8 * uint(i%8)))
	}
	return v
}

func selfValueIntact(v []byte) bool {
	return len(v) >= 8 && bytes.Equal(v, selfValue(binary.LittleEndian.Uint64(v), len(v)))
}

// TestValueSlotsNeverAlias is the seeded model run for the slot stacks: every
// way a value slot can be recycled — evict → ghost → refill, replace, delete,
// expiry, incr's in-place rewrite, append/prepend through cas, the
// serve-stale copy and slab migration between classes — runs against a model of the last bytes stored under each key, while
// concurrent readers verify that no value they are handed is torn. A slot
// shared by two items, or recycled while still referenced, shows up as a byte
// mismatch; CheckInvariants adds the structural check (no slot both stacked
// and resident, stacks bounded by the slab accounting). Rerun a failure with
// PAMA_MODEL_SEED=<logged seed>.
func TestValueSlotsNeverAlias(t *testing.T) {
	seed := modelSeed(t)
	rng := rand.New(rand.NewSource(seed))

	var now atomic.Int64
	now.Store(1_000_000)
	// The policy migrates a slab from the class owning the most whenever a
	// class runs dry, so the shifting size mix below keeps slabs (and their
	// slots) moving between classes.
	pol := &nullPolicy{gseg: 2}
	pol.makeRoom = func(class, _ int) {
		donor, most := -1, 1
		for cl := 0; cl < pol.c.NumClasses(); cl++ {
			if n := pol.c.Slabs(cl); cl != class && n > most {
				donor, most = cl, n
			}
		}
		if donor >= 0 {
			_ = pol.c.MigrateSlab(donor, 0, class)
		}
	}
	c, err := New(Config{
		Geometry:    smallGeom(), // 4 KiB slabs, slots 64/128/256/512
		CacheBytes:  8 * 4096,
		StoreValues: true,
		StaleValues: true,
		StaleBytes:  8 << 10,
		WindowLen:   997,
		Now:         now.Load,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}

	// Readers hammer the self-describing key family through get and gets.
	const selfKeys = 160
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var torn atomic.Value
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rr := rand.New(rand.NewSource(seed + int64(r) + 1))
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := "k" + strconv.Itoa(rr.Intn(selfKeys))
				var hit bool
				if rr.Intn(2) == 0 {
					buf, _, hit = c.Get(key, 0, 0, buf[:0])
				} else {
					buf, _, _, hit = c.GetWithCAS(key, buf[:0])
				}
				if hit && !selfValueIntact(buf) {
					torn.Store(fmt.Sprintf("reader saw a torn value under %q: %x", key, buf))
					return
				}
			}
		}(r)
	}
	defer func() {
		close(stop)
		readers.Wait()
		if msg := torn.Load(); msg != nil {
			t.Fatal(msg)
		}
	}()

	// last holds the bytes most recently stored under each key; it survives
	// eviction and expiry (the stale buffer may still serve them) and is
	// dropped only by delete.
	last := map[string][]byte{}
	const overhead = 8
	store := func(op int, key string, v []byte, expireAt int64) {
		t.Helper()
		err := c.SetTTL(key, len(v)+overhead, 0.01, 0, expireAt, v)
		switch {
		case err == nil:
			last[key] = v
		case errors.Is(err, ErrNoSpace):
			delete(last, key) // the old incarnation was freed before the store failed
		default:
			t.Fatalf("op %d: set %q (%d bytes): %v", op, key, len(v), err)
		}
	}
	check := func(op int, key string) {
		t.Helper()
		want, known := last[key]
		if got, _, hit := c.Get(key, 0, 0, nil); hit && (!known || !bytes.Equal(got, want)) {
			t.Fatalf("op %d: get %q = %x, last stored %x", op, key, got, want)
		}
		if got, _, ok := c.GetStale(key, nil); ok && (!known || !bytes.Equal(got, want)) {
			t.Fatalf("op %d: stale get %q = %x, last stored %x", op, key, got, want)
		}
	}
	var sawStack bool

	const ops = 12000
	for op := 0; op < ops; op++ {
		if rng.Intn(25) == 0 {
			now.Add(int64(1 + rng.Intn(3)))
		}
		// The size mix drifts from small to large values and back, so
		// demand (and slabs) move across all four classes.
		maxLen := 40 + (500-overhead-40)*(op%3000)/3000
		if (op/3000)%2 == 1 {
			maxLen = 540 - overhead - maxLen
		}
		switch r := rng.Intn(20); {
		case r < 9: // set or replace, sometimes with a TTL
			key := "k" + strconv.Itoa(rng.Intn(selfKeys))
			var exp int64
			if rng.Intn(6) == 0 {
				exp = now.Load() + int64(rng.Intn(6)) // 0 = expired on arrival
			}
			store(op, key, selfValue(rng.Uint64(), 8+rng.Intn(maxLen-8)), exp)
		case r < 12 || r >= 18: // read back through both paths; a read reaps what it finds expired
			check(op, "k"+strconv.Itoa(rng.Intn(selfKeys)))
			check(op, "c"+strconv.Itoa(rng.Intn(16)))
		case r < 13: // delete
			key := "k" + strconv.Itoa(rng.Intn(selfKeys))
			c.Delete(key)
			delete(last, key)
			if _, _, ok := c.GetStale(key, nil); ok {
				t.Fatalf("op %d: deleted %q still served stale", op, key)
			}
		case r < 15: // incr/decr rewrites the slot in place
			key := "n" + strconv.Itoa(rng.Intn(8))
			want, known := last[key]
			next, err := c.Delta(key, uint64(rng.Intn(1000)), rng.Intn(3) == 0)
			switch {
			case err == nil && !known:
				t.Fatalf("op %d: incr of unknown %q succeeded", op, key)
			case err == nil:
				// The model cannot know which side of an expiry the engine
				// saw; trust the result only as far as it is a number, then
				// confirm the rewrite landed in this key's slot and no other.
				last[key] = []byte(strconv.FormatUint(next, 10))
				check(op, key)
			case errors.Is(err, ErrNotStored):
				store(op, key, []byte(strconv.Itoa(rng.Intn(1_000_000))), 0)
			default:
				t.Fatalf("op %d: incr %q (last %q): %v", op, key, want, err)
			}
		case r < 18: // append/prepend as the server does them: gets + cas
			key := "c" + strconv.Itoa(rng.Intn(16))
			cur, _, cas, hit := c.GetWithCAS(key, nil)
			if !hit {
				store(op, key, selfValue(rng.Uint64(), 8+rng.Intn(24)), 0)
				break
			}
			if !bytes.Equal(cur, last[key]) {
				t.Fatalf("op %d: gets %q = %x, last stored %x", op, key, cur, last[key])
			}
			piece := selfValue(rng.Uint64(), 8+rng.Intn(24))
			combined := append(append([]byte(nil), cur...), piece...)
			if rng.Intn(2) == 0 {
				combined = append(piece, cur...)
			}
			if len(combined)+overhead > 512 {
				combined = combined[:16]
			}
			err := c.SetMode(key, ModeCAS, cas, len(combined)+overhead, 0.01, 0, 0, combined)
			switch {
			case err == nil:
				last[key] = combined
			case errors.Is(err, ErrNoSpace):
				delete(last, key)
			default:
				t.Fatalf("op %d: cas %q: %v", op, key, err)
			}
		}
		if op%101 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			for _, n := range c.Introspect().FreeValueBuffers {
				sawStack = sawStack || n > 0
			}
		}
	}
	for key := range last {
		check(ops, key)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Expired == 0 || st.SlabMigrations == 0 || !sawStack {
		t.Fatalf("run did not exercise every recycle path: %+v, stacks seen %v", st, sawStack)
	}
}

// TestCheckInvariantsCatchesStackViolations corrupts the slot stacks the
// three ways the invariant names and expects each to be reported.
func TestCheckInvariantsCatchesStackViolations(t *testing.T) {
	fill := func() *Cache {
		c, err := New(Config{Geometry: smallGeom(), CacheBytes: 2 * 4096, StoreValues: true}, &nullPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := c.Set("k"+strconv.Itoa(i), 60, 0.01, 0, []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		c.Delete("k0")
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := c.Introspect().FreeValueBuffers[0]; got != 1 {
			t.Fatalf("class 0 stacks %d slots after one delete, want 1", got)
		}
		return c
	}
	for name, tc := range map[string]struct {
		corrupt func(c *Cache)
		want    string
	}{
		"over the free-slot bound": {func(c *Cache) {
			k := &c.classes[0]
			for len(k.vfree) <= c.slabs.FreeSlots(0) {
				k.vfree = append(k.vfree, make([]byte, 0, k.slot))
			}
		}, "slab accounting has"},
		"wrong capacity": {func(c *Cache) {
			c.classes[0].vfree[0] = make([]byte, 0, 100)
		}, "slot size is 64"},
		"stacked while resident": {func(c *Cache) {
			c.classes[0].vfree[0] = c.index.Get(kv.HashString("k1"), "k1").Value[:0]
		}, "also on class 0's free stack"},
	} {
		c := fill()
		tc.corrupt(c)
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestSlotStackFollowsSlabAccounting pins the ownership rule: a class's stack
// fills as its items leave and is trimmed when a slab leaves the class.
func TestSlotStackFollowsSlabAccounting(t *testing.T) {
	c, err := New(Config{Geometry: smallGeom(), CacheBytes: 2 * 4096, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	const spc = 4096 / 64
	for i := 0; i < 2*spc; i++ { // both slabs go to class 0, full
		if err := c.Set("k"+strconv.Itoa(i), 60, 0.01, 0, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	stacked := func() []int { return c.Introspect().FreeValueBuffers }
	for i := 0; i < spc+5; i++ {
		c.Delete("k" + strconv.Itoa(i))
	}
	if got := stacked()[0]; got != spc+5 {
		t.Fatalf("class 0 stacks %d slots after %d deletes", got, spc+5)
	}
	c.mu.Lock()
	err = c.MigrateSlab(0, 0, 2)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := stacked(); got[0] != 5 || got[2] != 0 {
		t.Fatalf("after a slab left class 0 the stacks hold %v, want 5 in class 0 and none in class 2", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
