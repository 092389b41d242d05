package valuetable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"pamakv/internal/kv"
)

// TestTableTTL: an entry expires its TTL after its Put; with a TTL of 0 it
// never does.
func TestTableTTL(t *testing.T) {
	for _, ttl := range []time.Duration{50 * time.Millisecond, 0} {
		tb := New(1<<20, ttl)
		now := int64(5000 * time.Second)
		tb.now = func() int64 { return now }
		tb.Put("k", 0, []byte("v"))
		if _, _, ok := tb.Get("k", nil); !ok {
			t.Fatalf("ttl %v: fresh entry missed", ttl)
		}
		now += int64(time.Hour)
		if _, _, ok := tb.Get("k", nil); ok != (ttl == 0) {
			t.Fatalf("ttl %v: an hour later Get hit = %v", ttl, ok)
		}
		if st := tb.Stats(); (st.Items == 0) != (ttl > 0) {
			t.Fatalf("ttl %v: an hour later %+v", ttl, st)
		}
	}
}

// TestTableHashCollisionIsAMiss: two keys meeting in the index do not
// share a value.
func TestTableHashCollisionIsAMiss(t *testing.T) {
	tb := New(1<<20, time.Minute)
	tb.Put("a", 0, []byte("A"))
	sa, _ := tb.slotLocked(kv.HashString("a"))
	sb, _ := tb.slotLocked(kv.HashString("b"))
	tb.index[sb] = slot{hash: kv.HashString("b"), ent: tb.index[sa].ent}
	if v, _, ok := tb.Get("b", nil); ok {
		t.Fatalf("Get(b) returned a's value %q", v)
	}
	if tb.Contains(kv.HashString("b"), "b") {
		t.Fatal("Contains(b) is true for a's entry")
	}
	tb.Invalidate("b")
	if v, _, ok := tb.Get("a", nil); !ok || string(v) != "A" {
		t.Fatalf("Invalidate(b) touched a: (%q, %v)", v, ok)
	}
}

// TestTableMatchesReference replays seeded streams of Get, Put, Invalidate,
// Flush, oversized Put, PrefetchHashes and clock advances into Table and the
// list-based reference on one fake clock, and requires the same answer, the
// same Stats and the same LRU order after every operation. Every fifth
// stream runs without a TTL. The reference has no prefetch: a prefetch of
// resident, expired and absent keys must change nothing a later call can
// see. The one divergence is the fix for refused Puts: the reference keeps
// the key's older copy, so the stream invalidates it there.
func TestTableMatchesReference(t *testing.T) {
	const (
		streams = 20
		ops     = 20_000
	)
	for seed := int64(1); seed <= streams; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(200 + rng.Intn(1200))
		nkeys, maxVal := 48, int(budget)/4
		if seed%4 == 0 { // enough entries to grow the index a few times
			nkeys, maxVal, budget = 600, 32, 20_000
		}
		ttl := 100 * time.Millisecond
		if seed%5 == 0 {
			ttl = 0
		}
		now := time.Unix(1000, 0)
		tb, ref := New(budget, ttl), newRefTable(budget, ttl)
		tb.now = func() int64 { return now.UnixNano() }
		ref.now = func() time.Time { return now }
		var dst []byte
		var hs []uint64
		for op := 0; op < ops; op++ {
			key := "k" + strconv.Itoa(rng.Intn(nkeys))
			switch r := rng.Intn(1000); {
			case r < 50:
				hs = hs[:0]
				for i := rng.Intn(2 * prefetchWindow); i >= 0; i-- {
					hs = append(hs, kv.HashString("k"+strconv.Itoa(rng.Intn(nkeys+8))))
				}
				tb.PrefetchHashes(hs)
			case r < 450:
				var v []byte
				var f uint32
				var ok bool
				dst, f, ok = tb.Get(key, dst[:0])
				if ok {
					v = dst
				}
				rv, rf, rok := ref.Get(key)
				if ok != rok || f != rf || !bytes.Equal(v, rv) {
					t.Fatalf("seed %d op %d: Get(%s) = (%q, %d, %v), reference (%q, %d, %v)", seed, op, key, v, f, ok, rv, rf, rok)
				}
			case r < 800:
				val := bytes.Repeat([]byte{byte('a' + op%26)}, rng.Intn(maxVal))
				flags := uint32(rng.Intn(4))
				tb.Put(key, flags, val)
				ref.Put(key, flags, val)
			case r < 850:
				val := make([]byte, int(budget)-len(key)+1+rng.Intn(64))
				tb.Put(key, 0, val)
				ref.Put(key, 0, val)
				ref.Invalidate(key)
			case r < 929:
				tb.Invalidate(key)
				ref.Invalidate(key)
			case r < 930:
				tb.Flush()
				ref.Flush()
			default:
				now = now.Add(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
			}
			if st, rst := tb.Stats(), ref.Stats(); st != rst {
				t.Fatalf("seed %d op %d: Stats %+v, reference %+v", seed, op, st, rst)
			}
			if o, ro := tb.lruOrder(), ref.lruOrder(); !slices.Equal(o, ro) {
				t.Fatalf("seed %d op %d: LRU order %v, reference %v", seed, op, o, ro)
			}
			if err := tb.checkIndex(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// checkIndex verifies the index against the LRU list: it holds one slot per
// entry, each entry's lookup ends at its own slot, and at least a quarter of
// the slots are empty.
func (t *Table) checkIndex() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	used := 0
	for _, sl := range t.index {
		if sl.ent != 0 {
			used++
		}
	}
	if used != t.items || used > len(t.index)/4*3 {
		return fmt.Errorf("index holds %d of %d slots for %d entries", used, len(t.index), t.items)
	}
	for i := t.head; i != noSlot; i = t.ents[i].next {
		if j, ok := t.findLocked(t.ents[i].hash); !ok || j != i {
			return fmt.Errorf("entry %d (%q) is not found through the index", i, t.ents[i].buf[:t.ents[i].klen])
		}
	}
	return nil
}

// lruOrder lists the held keys from most to least recently used.
func (t *Table) lruOrder() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for i := t.head; i != noSlot; i = t.ents[i].next {
		out = append(out, string(t.ents[i].buf[:t.ents[i].klen]))
	}
	return out
}
