package cache_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

// TestPrefetchIsReadOnly runs twin engines through one seeded operation
// stream over keys in every state (resident, ghost, expired, never seen, and
// the colliding, wrapping fuzzKeys); the second twin also gets a Prefetch of
// a random handful of the keys before each operation. After every operation
// the twins must answer alike and agree on Stats (the two prefetch counters
// aside), Introspect, the access clock, window counters, and every stack's
// order with every item's fields and value.
func TestPrefetchIsReadOnly(t *testing.T) {
	for _, kind := range []string{"pama", "psa", "memcached", "camp", "lama-hit"} {
		t.Run(kind, func(t *testing.T) {
			plain, fetched := newOpsEngine(t, kind, 0), newOpsEngine(t, kind, 0)
			var keys []string
			for _, state := range keyStates {
				keys = append(keys, plain.take(t, state, 15)...)
			}
			keys = append(keys, fuzzKeys...)
			rng := rand.New(rand.NewSource(1))
			var batch []string
			for op := 0; op < 1500; op++ {
				batch = batch[:0]
				for n := rng.Intn(6); n > 0; n-- {
					batch = append(batch, keys[rng.Intn(len(keys))])
				}
				key := keys[rng.Intn(len(keys))]
				code, arg := rng.Intn(12), rng.Intn(256)
				fetched.Prefetch(append(batch, key))
				a := twinOp(plain, code, key, arg)
				b := twinOp(fetched, code, key, arg)
				if a != b {
					t.Fatalf("op %d (%d on %q): plain answered %s, prefetched %s", op, code, key, a, b)
				}
				if diff := twinDiff(plain, fetched); diff != "" {
					t.Fatalf("op %d (%d on %q): %s", op, code, key, diff)
				}
			}
			st := fetched.Stats()
			if st.Prefetched == 0 || st.PrefetchResident == 0 || plain.Stats().Prefetched != 0 {
				t.Fatalf("prefetch counters: prefetched twin %d/%d, plain twin %d",
					st.PrefetchResident, st.Prefetched, plain.Stats().Prefetched)
			}
			for _, e := range []*opsEngine{plain, fetched} {
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// twinOp applies operation code to key on e and renders the answer.
func twinOp(e *opsEngine, code int, key string, arg int) string {
	size := 20 + arg*3
	val := []byte(strings.Repeat(string(rune('a'+arg%26)), size-len(key)))
	pen := []float64{0.0005, 0.005, 0.05, 0.5, 2}[arg%5]
	var ttl int64
	if arg%4 == 0 {
		ttl = e.now + int64(arg%3)
	}
	switch code {
	case 0:
		v, f, hit := e.Get(key, 0, 0, nil)
		return fmt.Sprintf("get %q %d %v", v, f, hit)
	case 1:
		v, f, cas, hit := e.GetWithCAS(key, nil)
		return fmt.Sprintf("gets %q %d %d %v", v, f, cas, hit)
	case 2:
		return fmt.Sprint(e.SetTTL(key, size, pen, uint32(arg), ttl, val))
	case 3:
		return fmt.Sprint(e.SetMode(key, cache.ModeAdd, 0, size, pen, 0, ttl, val))
	case 4:
		return fmt.Sprint(e.SetMode(key, cache.ModeReplace, 0, size, pen, 0, ttl, val))
	case 5:
		_, _, tok, _ := e.GetWithCAS(key, nil)
		return fmt.Sprint(e.SetMode(key, cache.ModeCAS, tok, size, pen, 0, ttl, val))
	case 6:
		return fmt.Sprint(e.Touch(key, ttl))
	case 7:
		n, err := e.Delta(key, uint64(arg), arg%2 == 0)
		return fmt.Sprint(n, err)
	case 8:
		return fmt.Sprint(e.Delete(key))
	case 9:
		v, f, ok := e.GetStale(key, nil)
		return fmt.Sprintf("stale %q %d %v", v, f, ok)
	case 10:
		v, f, hit := e.Get(key, size, pen, nil) // a replayer's get: the miss is attributed by hint
		return fmt.Sprintf("get %q %d %v", v, f, hit)
	default:
		e.now += int64(arg % 3)
		return "tick"
	}
}

// twinDiff describes the first difference between the twins' observable
// state, or returns "".
func twinDiff(a, b *opsEngine) string {
	sa, sb := a.Stats(), b.Stats()
	sb.Prefetched, sb.PrefetchResident = sa.Prefetched, sa.PrefetchResident
	if sa != sb {
		return fmt.Sprintf("stats differ:\n plain      %+v\n prefetched %+v", sa, sb)
	}
	ia, ib := a.Introspect(), b.Introspect()
	ib.Stats = ia.Stats
	if !reflect.DeepEqual(ia, ib) {
		return fmt.Sprintf("introspection differs:\n plain      %+v\n prefetched %+v", ia, ib)
	}
	if a.Clock() != b.Clock() {
		return fmt.Sprintf("clock %d vs %d", a.Clock(), b.Clock())
	}
	for cl := 0; cl < a.NumClasses(); cl++ {
		if a.WindowReqs(cl) != b.WindowReqs(cl) || a.WindowMisses(cl) != b.WindowMisses(cl) {
			return fmt.Sprintf("class %d window counters differ", cl)
		}
		for sub := 0; sub < a.NumSubclasses(); sub++ {
			sa, sb := stackOf(a, cl, sub), stackOf(b, cl, sub)
			for i := 0; i < max(len(sa), len(sb)); i++ {
				if i >= len(sa) || i >= len(sb) || !reflect.DeepEqual(sa[i], sb[i]) {
					return fmt.Sprintf("stack (%d,%d) differs at position %d from the bottom (lengths %d, %d)", cl, sub, i, len(sa), len(sb))
				}
			}
		}
	}
	return ""
}

// stackEntry is one item of a stack as two engines can agree on it: its
// record but for the links and the slot's address, its key and its value.
type stackEntry struct {
	rec        kv.Item
	key, value string
}

// stackOf lists the items of one stack from LRU to MRU.
func stackOf(e *opsEngine, class, sub int) []stackEntry {
	var out []stackEntry
	for _, it := range cache.StackOf(e.Cache, class, sub) {
		rec := *it
		rec.Prev, rec.Next, rec.Slot = 0, 0, 0
		out = append(out, stackEntry{rec, it.Key(), string(it.Value())})
	}
	return out
}
