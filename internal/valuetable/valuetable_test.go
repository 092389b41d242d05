package valuetable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"pamakv/internal/kv"
)

// TestTableTTL: an entry expires its TTL after its Put; with a TTL of 0 it
// never does.
func TestTableTTL(t *testing.T) {
	for _, ttl := range []time.Duration{50 * time.Millisecond, 0} {
		tb := New(1<<20, ttl)
		now := int64(5000 * time.Second)
		tb.now = func() int64 { return now }
		h := kv.HashString("k")
		tb.PutHash(h, "k", 0, []byte("v"))
		if _, _, ok := tb.GetHash(h, "k", nil); !ok {
			t.Fatalf("ttl %v: fresh entry missed", ttl)
		}
		now += int64(time.Hour)
		if _, _, ok := tb.GetHash(h, "k", nil); ok != (ttl == 0) {
			t.Fatalf("ttl %v: an hour later Get hit = %v", ttl, ok)
		}
		if st := tb.Stats(); (st.Items == 0) != (ttl > 0) {
			t.Fatalf("ttl %v: an hour later %+v", ttl, st)
		}
	}
}

// TestTableHashCollisionIsAMiss: two keys of one 64-bit hash do not share
// a value, and each has an entry of its own.
func TestTableHashCollisionIsAMiss(t *testing.T) {
	tb := New(1<<20, time.Minute)
	const h = 0x5eed
	tb.PutHash(h, "a", 0, []byte("A"))
	if v, _, ok := tb.GetHash(h, "b", nil); ok {
		t.Fatalf("GetHash(b) returned a's value %q", v)
	}
	if tb.Contains(h, "b") {
		t.Fatal("Contains(b) is true for a's entry")
	}
	tb.InvalidateHash(h, "b")
	if v, _, ok := tb.GetHash(h, "a", nil); !ok || string(v) != "A" {
		t.Fatalf("InvalidateHash(b) touched a: (%q, %v)", v, ok)
	}
	tb.PutHash(h, "b", 0, []byte("B"))
	for _, k := range []string{"a", "b"} {
		if v, _, ok := tb.GetHash(h, k, nil); !ok || string(v) != strings.ToUpper(k) {
			t.Fatalf("after both Puts GetHash(%s) = (%q, %v)", k, v, ok)
		}
	}
	if err := tb.checkIndex(); err != nil {
		t.Fatal(err)
	}
}

// TestTableEmptiedAllocs: a table whose only entry leaves, by Invalidate or
// Flush, keeps its records, so storing again allocates nothing.
func TestTableEmptiedAllocs(t *testing.T) {
	tb := New(1<<20, time.Minute)
	h, val := kv.HashString("k"), make([]byte, 100)
	for _, drop := range []func(){func() { tb.InvalidateHash(h, "k") }, tb.Flush} {
		if allocs := testing.AllocsPerRun(100, func() {
			tb.PutHash(h, "k", 0, val)
			drop()
		}); allocs != 0 {
			t.Fatalf("Put into an emptied table made %v allocations, want 0", allocs)
		}
	}
}

// twin drives a Table and the list-based reference on one fake clock.
type twin struct {
	tb  *Table
	ref *refTable
	now time.Time
	dst []byte
	hs  []uint64
}

func newTwin(budget int64, ttl time.Duration) *twin {
	w := &twin{tb: New(budget, ttl), ref: newRefTable(budget, ttl), now: time.Unix(1000, 0)}
	w.tb.now = func() int64 { return w.now.UnixNano() }
	w.ref.now = func() time.Time { return w.now }
	return w
}

// get reads key from both and reports a differing answer.
func (w *twin) get(key string) error {
	var v []byte
	var f uint32
	var ok bool
	w.dst, f, ok = w.tb.GetHash(kv.HashString(key), key, w.dst[:0])
	if ok {
		v = w.dst
	}
	if rv, rf, rok := w.ref.Get(key); ok != rok || f != rf || !bytes.Equal(v, rv) {
		return fmt.Errorf("Get(%s) = (%q, %d, %v), reference (%q, %d, %v)", key, v, f, ok, rv, rf, rok)
	}
	return nil
}

// put stores into both. The one divergence is the fix for refused Puts: the
// reference keeps the key's older copy, so it is invalidated there.
func (w *twin) put(key string, flags uint32, val []byte) {
	w.tb.PutHash(kv.HashString(key), key, flags, val)
	w.ref.Put(key, flags, val)
	if int64(len(key)+len(val)) > w.tb.maxBytes {
		w.ref.Invalidate(key)
	}
}

// putOversized stores a value extra+1 bytes over the budget.
func (w *twin) putOversized(key string, extra int) {
	w.put(key, 0, make([]byte, int(w.tb.maxBytes)-len(key)+1+extra))
}

func (w *twin) invalidate(key string) {
	w.tb.InvalidateHash(kv.HashString(key), key)
	w.ref.Invalidate(key)
}

func (w *twin) flush() {
	w.tb.Flush()
	w.ref.Flush()
}

// prefetch hashes keys into the table's prefetch; the reference has none.
func (w *twin) prefetch(keys []string) {
	w.hs = w.hs[:0]
	for _, k := range keys {
		w.hs = append(w.hs, kv.HashString(k))
	}
	w.tb.PrefetchHashes(w.hs)
}

// check compares Stats and LRU order and audits the table's index.
func (w *twin) check() error {
	if st, rst := w.tb.Stats(), w.ref.Stats(); st != rst {
		return fmt.Errorf("Stats %+v, reference %+v", st, rst)
	}
	if o, ro := w.tb.lruOrder(), w.ref.lruOrder(); !slices.Equal(o, ro) {
		return fmt.Errorf("LRU order %v, reference %v", o, ro)
	}
	return w.tb.checkIndex()
}

// TestTableMatchesReference replays seeded streams of Get, Put, Invalidate,
// Flush, oversized Put, PrefetchHashes and clock advances into Table and the
// list-based reference on one fake clock, and requires the same answer, the
// same Stats and the same LRU order after every operation. Every fifth
// stream runs without a TTL. The reference has no prefetch: a prefetch of
// resident, expired and absent keys must change nothing a later call can
// see.
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
		w := newTwin(budget, ttl)
		var keys []string
		for op := 0; op < ops; op++ {
			key := "k" + strconv.Itoa(rng.Intn(nkeys))
			var err error
			switch r := rng.Intn(1000); {
			case r < 50:
				keys = keys[:0]
				for i := rng.Intn(2 * prefetchWindow); i >= 0; i-- {
					keys = append(keys, "k"+strconv.Itoa(rng.Intn(nkeys+8)))
				}
				w.prefetch(keys)
			case r < 450:
				err = w.get(key)
			case r < 800:
				val := bytes.Repeat([]byte{byte('a' + op%26)}, rng.Intn(maxVal))
				w.put(key, uint32(rng.Intn(4)), val)
			case r < 850:
				w.putOversized(key, rng.Intn(64))
			case r < 929:
				w.invalidate(key)
			case r < 930:
				w.flush()
			default:
				w.now = w.now.Add(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
			}
			if err == nil {
				err = w.check()
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// FuzzValueTable is TestTableMatchesReference with the stream decoded from
// the input: cfg sets the budget (64 B to 2 KiB) and the TTL (none, 20, 40 or
// 60 ms), then every three bytes are an operation, a key and an argument.
// The operation's low three bits pick Get, Put, oversized Put, Invalidate,
// Flush, PrefetchHashes or a clock step; its fourth bit widens the key
// space from 16 keys to 256, enough entries to grow the index. The same
// answers, Stats and LRU order, and the index's invariants, are required
// after every operation.
func FuzzValueTable(f *testing.F) {
	const get, put, oversized, invalidate, flush, prefetch, step, wide = 0, 1, 2, 3, 4, 5, 6, 8
	// A TTL of 0: stores, clock steps past the longest TTL, reads that still hit.
	f.Add(byte(0x3f), []byte{put, 1, 20, put, 2, 30, step, 0, 255, step, 0, 255, get, 1, 0, get, 2, 0, get, 3, 0})
	// 20 ms: a read after the entry expired misses and drops it.
	f.Add(byte(0x7f), []byte{put, 1, 20, step, 0, 40, get, 1, 0, step, 0, 60, get, 1, 0, prefetch, 0, 4})
	// Index growth: 40 small entries over the wide key space, then reads.
	var grow []byte
	for k := byte(0); k < 40; k++ {
		grow = append(grow, put|wide, 3*k, 1)
	}
	for k := byte(0); k < 40; k++ {
		grow = append(grow, get|wide, 3*k, 0)
	}
	f.Add(byte(0x3f), append(grow, prefetch|wide, 0, 15, invalidate|wide, 0, 0))
	// Records reused after a Flush, with the budget overflowing.
	f.Add(byte(0x01), []byte{put, 1, 40, put, 2, 40, flush, 0, 0, put, 3, 10, get, 1, 0, get, 3, 0, put, 4, 50, put, 5, 50, oversized, 5, 3, get, 4, 0})
	f.Fuzz(func(t *testing.T, cfg byte, ops []byte) {
		w := newTwin(64+int64(cfg&0x3f)*32, time.Duration(cfg>>6)*20*time.Millisecond)
		var keys []string
		for n := 0; len(ops) >= 3; n++ {
			op, k, arg := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			if op&wide == 0 {
				k %= 16
			}
			key := "k" + strconv.Itoa(k)
			var err error
			switch op & 7 {
			case get:
				err = w.get(key)
			case put:
				w.put(key, uint32(arg&3), bytes.Repeat([]byte{byte('a' + n%26)}, arg))
			case oversized:
				w.putOversized(key, arg)
			case invalidate:
				w.invalidate(key)
			case flush:
				w.flush()
			case prefetch:
				keys = keys[:0]
				for i := 0; i <= arg%prefetchWindow; i++ {
					keys = append(keys, "k"+strconv.Itoa(k+i))
				}
				w.prefetch(keys)
			default:
				w.now = w.now.Add(time.Duration(arg) * time.Millisecond / 4)
			}
			if err == nil {
				err = w.check()
			}
			if err != nil {
				t.Fatalf("op %d: %v", n, err)
			}
		}
	})
}

// checkIndex verifies the index and the byte count against the LRU list:
// the index holds every listed entry and no other, each entry's lookup finds
// its own record, whose key and value are its slot's buffer, the entries'
// bytes sum to the table's, and the index keeps its own invariants.
func (t *Table) checkIndex() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.index.CheckInvariants(); err != nil {
		return err
	}
	if t.index.Len() != t.list.Len() || t.recs.Len() != t.list.Len()+1 {
		return fmt.Errorf("index holds %d entries, the store %d records besides the spare, the list %d", t.index.Len(), t.recs.Len()-1, t.list.Len())
	}
	var bytes int64
	for id := t.list.Front(); id != 0; id = t.recs.At(id).Next {
		it := t.recs.At(id)
		if got := t.index.Get(it.Hash, it.Key()); got != id {
			return fmt.Errorf("entry %d (%q) is found as %d through the index", id, it.Key(), got)
		}
		if b := t.bufs[bufAt(id)]; len(b) != int(it.KLen)+int(it.VLen) || uintptr(unsafe.Pointer(unsafe.SliceData(b))) != it.Slot {
			return fmt.Errorf("entry %d (%q) is not its slot's buffer", id, it.Key())
		}
		bytes += int64(it.KLen) + int64(it.VLen)
	}
	if bytes != t.bytes {
		return fmt.Errorf("entries hold %d bytes, the table counts %d", bytes, t.bytes)
	}
	return nil
}

// lruOrder lists the held keys from most to least recently used.
func (t *Table) lruOrder() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id := t.list.Front(); id != 0; id = t.recs.At(id).Next {
		out = append(out, t.recs.At(id).Key())
	}
	return out
}
