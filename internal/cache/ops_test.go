package cache

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pamakv/internal/valuetable"
)

func newOpsCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{
		Geometry:    smallGeom(),
		CacheBytes:  4 * 4096,
		StoreValues: true,
		WindowLen:   1 << 50,
	}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetWithCASTokens(t *testing.T) {
	c := newOpsCache(t)
	c.Set("k", 10, 0.01, 0, []byte("v1"))
	_, _, cas1, hit := c.GetWithCAS("k", nil)
	if !hit || cas1 == 0 {
		t.Fatalf("cas1=%d hit=%v", cas1, hit)
	}
	// A read does not change the token.
	_, _, cas2, _ := c.GetWithCAS("k", nil)
	if cas2 != cas1 {
		t.Fatal("reads must not change the CAS token")
	}
	// A write does.
	c.Set("k", 10, 0.01, 0, []byte("v2"))
	_, _, cas3, _ := c.GetWithCAS("k", nil)
	if cas3 == cas1 {
		t.Fatal("writes must change the CAS token")
	}
	if _, _, _, hit := c.GetWithCAS("absent", nil); hit {
		t.Fatal("phantom CAS hit")
	}
}

func TestGetWithCASValueCopied(t *testing.T) {
	c := newOpsCache(t)
	c.Set("k", 5, 0.01, 0, []byte("hello"))
	val, _, _, _ := c.GetWithCAS("k", nil)
	val[0] = 'X'
	val2, _, _, _ := c.GetWithCAS("k", nil)
	if string(val2) != "hello" {
		t.Fatal("GetWithCAS returned aliased value")
	}
}

func TestSetModeAdd(t *testing.T) {
	c := newOpsCache(t)
	if err := c.SetMode("k", ModeAdd, 0, 10, 0.01, 0, 0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := c.SetMode("k", ModeAdd, 0, 10, 0.01, 0, 0, []byte("b"))
	if !errors.Is(err, ErrNotStored) {
		t.Fatalf("second add: %v", err)
	}
	val, _, _ := c.Get("k", 0, 0, nil)
	if string(val) != "a" {
		t.Fatal("add overwrote existing value")
	}
}

func TestSetModeReplace(t *testing.T) {
	c := newOpsCache(t)
	if err := c.SetMode("k", ModeReplace, 0, 10, 0.01, 0, 0, []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("replace of absent key: %v", err)
	}
	c.Set("k", 10, 0.01, 0, []byte("a"))
	if err := c.SetMode("k", ModeReplace, 0, 10, 0.01, 0, 0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	val, _, _ := c.Get("k", 0, 0, nil)
	if string(val) != "b" {
		t.Fatal("replace did not store")
	}
}

func TestSetModeCAS(t *testing.T) {
	c := newOpsCache(t)
	if err := c.SetMode("k", ModeCAS, 1, 10, 0.01, 0, 0, nil); !errors.Is(err, ErrNotStored) {
		t.Fatalf("cas on absent key: %v", err)
	}
	c.Set("k", 10, 0.01, 0, []byte("v1"))
	_, _, cas, _ := c.GetWithCAS("k", nil)
	if err := c.SetMode("k", ModeCAS, cas+99, 10, 0.01, 0, 0, []byte("bad")); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("stale cas: %v", err)
	}
	if err := c.SetMode("k", ModeCAS, cas, 10, 0.01, 0, 0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	val, _, _ := c.Get("k", 0, 0, nil)
	if string(val) != "v2" {
		t.Fatal("cas did not store")
	}
	// The winning cas bumped the token; replaying the old token fails.
	if err := c.SetMode("k", ModeCAS, cas, 10, 0.01, 0, 0, []byte("v3")); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("replayed cas: %v", err)
	}
}

// TestSetModeCASIsAtomic increments one counter key from several goroutines
// through GetWithCAS + SetMode(ModeCAS). Every store the engine acknowledges
// must be in the final value, and an add racing them must never replace it.
func TestSetModeCASIsAtomic(t *testing.T) {
	c := newOpsCache(t)
	c.Set("n", 10, 0.01, 0, []byte("0"))
	const workers, rounds = 8, 5000
	var wins atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < rounds; i++ {
				val, _, cas, hit := c.GetWithCAS("n", buf[:0])
				if !hit {
					t.Error("counter key vanished")
					return
				}
				buf = val
				n, err := strconv.ParseUint(string(val), 10, 64)
				if err != nil {
					t.Errorf("counter holds %q", val)
					return
				}
				next := strconv.AppendUint(nil, n+1, 10)
				switch err := c.SetMode("n", ModeCAS, cas, 10, 0.01, 0, 0, next); {
				case err == nil:
					wins.Add(1)
				case !errors.Is(err, ErrCASMismatch):
					t.Errorf("cas: %v", err)
					return
				}
				if err := c.SetMode("n", ModeAdd, 0, 10, 0.01, 0, 0, []byte("0")); !errors.Is(err, ErrNotStored) {
					t.Errorf("add over a resident key: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	val, _, _, _ := c.GetWithCAS("n", nil)
	if final, _ := strconv.ParseUint(string(val), 10, 64); final != wins.Load() {
		t.Fatalf("counter = %d after %d acknowledged CAS stores", final, wins.Load())
	}
}

func TestTouch(t *testing.T) {
	now := int64(1000)
	c, err := New(Config{
		Geometry:    smallGeom(),
		CacheBytes:  4 * 4096,
		StoreValues: true,
		WindowLen:   1 << 50,
		Now:         func() int64 { return now },
	}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetTTL("k", 10, 0.01, 0, 1010, []byte("v"))
	if !c.Touch("k", 2000) {
		t.Fatal("touch of resident key failed")
	}
	now = 1500 // would have expired without the touch
	if _, _, hit := c.Get("k", 0, 0, nil); !hit {
		t.Fatal("touched item expired")
	}
	if c.Touch("absent", 2000) {
		t.Fatal("touch of absent key reported success")
	}
	now = 3000
	if c.Touch("k", 4000) {
		t.Fatal("touch of expired key reported success")
	}
}

// TestGetStaleNeedsABuffer: serve-stale is the stale buffer. An engine
// without one serves nothing, not even a resident item whose TTL passed;
// one with a buffer serves it.
func TestGetStaleNeedsABuffer(t *testing.T) {
	now := int64(1000)
	for _, stale := range []*valuetable.Table{nil, valuetable.New(1<<16, 0)} {
		c, err := New(Config{
			Geometry:    smallGeom(),
			CacheBytes:  4 * 4096,
			StoreValues: true,
			Stale:       stale,
			WindowLen:   1 << 50,
			Now:         func() int64 { return now },
		}, &nullPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		c.SetTTL("k", 10, 0.01, 0, now+10, []byte("v"))
		now += 20
		val, _, ok := c.GetStale("k", nil)
		if ok != (stale != nil) || (ok && string(val) != "v") {
			t.Errorf("with a table %v: GetStale of an expired resident = %q, %v", stale != nil, val, ok)
		}
	}
}

func TestDeltaIncrDecr(t *testing.T) {
	c := newOpsCache(t)
	c.Set("n", 10, 0.01, 0, []byte("10"))
	if v, err := c.Delta("n", 5, false); err != nil || v != 15 {
		t.Fatalf("incr: %d %v", v, err)
	}
	if v, err := c.Delta("n", 20, true); err != nil || v != 0 {
		t.Fatalf("decr should clamp at 0: %d %v", v, err)
	}
	val, _, _ := c.Get("n", 0, 0, nil)
	if string(val) != "0" {
		t.Fatalf("stored value = %q", val)
	}
	if _, err := c.Delta("missing", 1, false); !errors.Is(err, ErrNotStored) {
		t.Fatalf("delta on absent key: %v", err)
	}
	c.Set("s", 10, 0.01, 0, []byte("pears"))
	if _, err := c.Delta("s", 1, false); !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("delta on text: %v", err)
	}
}

// TestConcatKeepsFlagsAndExpiry: append and prepend rewrite the live item,
// as Memcached does. Its flags and expiry survive, the operand's are ignored,
// whether the value still fits its slot or moves to a larger class, and every
// rewrite issues a new CAS token. The engine's clock is the test's.
func TestConcatKeepsFlagsAndExpiry(t *testing.T) {
	now := int64(1_000_000)
	c, err := New(Config{
		Geometry: smallGeom(), CacheBytes: 4 * 4096, StoreValues: true, WindowLen: 1 << 50,
		Now: func() int64 { return now },
	}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	var token uint64
	check := func(step, want string, class int) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		it := c.record("k")
		if it == nil || string(it.Value()) != want || it.Flags != 7 || int64(it.ExpireAt) != now+2 || int(it.Class) != class {
			t.Fatalf("%s: k = %+v, want %q with flags 7, expiry %d, in class %d", step, it, want, now+2, class)
		}
		if it.CAS == token {
			t.Fatalf("%s: CAS token %d not renewed", step, token)
		}
		token = it.CAS
	}
	concat := func(mode SetMode, v string) {
		t.Helper()
		if err := c.SetMode("k", mode, 0, 1000, 2, 99, 0, []byte(v)); err != nil {
			t.Fatalf("concat %q: %v", v, err)
		}
	}
	if err := c.SetTTL("k", 20, 0.01, 7, now+2, []byte("bar")); err != nil {
		t.Fatal(err)
	}
	check("set", "bar", 0)
	concat(ModeAppend, "baz")
	check("append in place", "barbaz", 0)
	concat(ModePrepend, "foo")
	check("prepend in place", "foobarbaz", 0)
	tail := strings.Repeat("t", 50) // 20+6+50 bytes outgrow the 64-byte slot
	concat(ModeAppend, tail)
	check("append into class 1", "foobarbaz"+tail, 1)
	if used := c.UsedSlots(0); used != 0 {
		t.Fatalf("class 0 still holds %d slots", used)
	}
	if st := c.Stats(); st.Sets != 4 || st.Overwrites != 2 || st.Gets != 0 {
		t.Fatalf("a set and three concats (two in place) counted %+v", st)
	}
	concat(ModePrepend, "<")
	check("prepend in class 1", "<foobarbaz"+tail, 1)

	now += 3 // past the deadline the set gave
	if _, _, hit := c.Get("k", 0, 0, nil); hit {
		t.Fatal("append reset the expiry: k outlived its deadline")
	}
	if err := c.SetMode("k", ModeAppend, 0, 10, 0.01, 0, 0, []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("append to an expired key: %v", err)
	}
	if c.Contains("k") {
		t.Fatal("append created the key")
	}
}

func TestDeltaWraps(t *testing.T) {
	c := newOpsCache(t)
	c.Set("n", 20, 0.01, 0, []byte("18446744073709551615")) // 2^64-1
	if v, err := c.Delta("n", 1, false); err != nil || v != 0 {
		t.Fatalf("incr should wrap: %d %v", v, err)
	}
}

// TestDeltaAllocs pins the incr/decr hot path at zero heap allocations: the
// value is parsed directly from its resident bytes and rewritten in place.
// The delta alternates so the digit width never changes and the rewrite
// always fits the value's existing capacity.
func TestDeltaAllocs(t *testing.T) {
	c := newOpsCache(t)
	c.Set("n", 10, 0.01, 0, []byte("500"))
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := c.Delta("n", 1, false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delta("n", 1, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("Delta allocates %.2f objects per incr/decr pair, want 0", allocs)
	}
}

// TestDeltaParseEdges pins parseUintValue against strconv semantics: signs,
// blanks, and overflow are ErrNotNumeric, exact MaxUint64 is accepted.
func TestDeltaParseEdges(t *testing.T) {
	c := newOpsCache(t)
	for _, bad := range []string{"", " 1", "+1", "-1", "1 ", "1x", "18446744073709551616"} {
		c.Set("e", 30, 0.01, 0, []byte(bad))
		if _, err := c.Delta("e", 1, false); !errors.Is(err, ErrNotNumeric) {
			t.Fatalf("Delta on %q: %v, want ErrNotNumeric", bad, err)
		}
	}
}

// TestScanKeysRunsCallbackOutsideEngineLock: the handoff scan computes
// ring routing inside fn, so fn must run with the engine unlocked — a
// re-entrant engine call from fn (deadlock before the snapshot split)
// is the sharpest way to pin that.
func TestScanKeysRunsCallbackOutsideEngineLock(t *testing.T) {
	c := newOpsCache(t)
	for i := 0; i < 8; i++ {
		c.Set(fmt.Sprintf("s%d", i), 10, float64(i), 0, []byte("v"))
	}
	seen := 0
	c.ScanKeys(func(key string, pen float64, size int, expireAt int64) bool {
		seen++
		// Re-entrant engine ops: these deadlock if ScanKeys still holds
		// c.mu while calling fn.
		if _, _, hit := c.Get(key, 10, pen, nil); !hit {
			t.Errorf("scan-reported key %q missing", key)
		}
		return key != "s3" // early stop must also work
	})
	if seen == 0 || seen > 8 {
		t.Fatalf("scanned %d keys", seen)
	}
}
