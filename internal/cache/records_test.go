package cache

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pamakv/internal/kv"
)

// holdsPointers reports whether a value of type t holds a Go pointer the
// collector would follow.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestNoPerItemHeapObject fills a value-storing engine with 120 k residents
// and counts the heap objects the fill left behind: the records come in
// chunks of kv.ChunkLen, keys and values sit in the value pages outside the
// heap, and the index slots and page owners are ids, so the live objects grow
// by under 1 % of the residents where one object per item would double them.
// The element types of the index and the page owners hold no pointer, so the
// collector scans none of that memory either.
func TestNoPerItemHeapObject(t *testing.T) {
	const residents = 120_000
	c, err := New(Config{CacheBytes: 32 << 20, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	slots := reflect.ValueOf(c.index).Elem().FieldByName("slots").Type().Elem()
	if holdsPointers(slots) {
		t.Errorf("the index slot %v holds a pointer", slots)
	}
	if owner := reflect.TypeOf(page{}.owner).Elem(); holdsPointers(owner) {
		t.Errorf("a page's owner element %v holds a pointer", owner)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	key := make([]byte, 0, 16)
	for i := 0; i < residents; i++ {
		key = strconv.AppendInt(append(key[:0], "key-"...), int64(i), 10)
		if err := c.Set(string(key), 40, 0.01, 0, key); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Items() != residents {
		t.Fatalf("%d residents, want %d: the budget evicted", c.Items(), residents)
	}
	grew := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("%d residents, %d more heap objects", residents, grew)
	if grew >= residents/100 {
		t.Fatalf("%d residents left %d more heap objects, want under %d (1 %%)", residents, grew, residents/100)
	}
	if want := int64(residents/kv.ChunkLen+1) * kv.ChunkLen * 64; c.Introspect().RecordBytes != want {
		t.Fatalf("record_bytes = %d, want %d: the chunks of %d records", c.Introspect().RecordBytes, want, residents)
	}
	runtime.KeepAlive(c)
}

// TestRecordsGivenBackOnFlush: a flush frees every record, and the store
// gives its chunks back with the last one, so record_bytes falls from 120 k
// residents' chunks to 0 and the next store takes one chunk afresh.
func TestRecordsGivenBackOnFlush(t *testing.T) {
	const residents = 120_000
	c, err := New(Config{CacheBytes: 32 << 20, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 0, 16)
	for i := 0; i < residents; i++ {
		key = strconv.AppendInt(append(key[:0], "key-"...), int64(i), 10)
		if err := c.Set(string(key), 40, 0.01, 0, key); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Introspect().RecordBytes, int64(residents/kv.ChunkLen+1)*kv.ChunkLen*64; got != want {
		t.Fatalf("record_bytes = %d at %d residents, want %d", got, residents, want)
	}
	c.Flush()
	if in := c.Introspect(); in.RecordBytes != 0 || in.Items != 0 {
		t.Fatalf("after Flush: %d items in %d record bytes, want none in 0", in.Items, in.RecordBytes)
	}
	if err := c.Set("again", 40, 0.01, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := c.Introspect().RecordBytes; got != kv.ChunkLen*64 {
		t.Fatalf("record_bytes = %d after one store, want one chunk", got)
	}
	if v, _, hit := c.Get("again", 0, 0, nil); !hit || string(v) != "v" {
		t.Fatalf("Get(again) = %q, %v", v, hit)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordReuseAfterFree: a record freed by a delete, an eviction or an
// expiry is the next one a store takes, under the new key only — the index,
// the stacks and the value pages name it by the same id — in a value-storing
// engine and in a metadata-only one, whose records point at the keys they
// hold.
func TestRecordReuseAfterFree(t *testing.T) {
	for _, values := range []bool{true, false} {
		t.Run(fmt.Sprintf("values=%v", values), func(t *testing.T) {
			now := int64(1_000)
			c, err := New(Config{Geometry: smallGeom(), CacheBytes: 4096, StoreValues: values,
				Now: func() int64 { return now }}, &nullPolicy{gseg: 1})
			if err != nil {
				t.Fatal(err)
			}
			idOf := func(key string) uint32 { return c.index.Get(kv.HashString(key), key) }
			check := func(step, key, value string) {
				t.Helper()
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				it := c.record(key)
				if it == nil || it.Key() != key || (values && string(it.Value()) != value) {
					t.Fatalf("%s: %q holds %+v", step, key, it)
				}
			}
			store := func(key string, exp int64) {
				t.Helper()
				if err := c.SetTTL(key, 40, 0.01, 0, exp, []byte("v-"+key)); err != nil {
					t.Fatal(err)
				}
			}
			store("a", 0)
			a := idOf("a")
			c.Delete("a")
			store("b", 0)
			if idOf("b") != a || idOf("a") != 0 {
				t.Fatalf("delete: b took record %d, a's was %d; a still indexed as %d", idOf("b"), a, idOf("a"))
			}
			check("delete", "b", "v-b")

			store("c", now+1)
			cid := idOf("c")
			now += 2
			if _, _, hit := c.Get("c", 0, 0, nil); hit {
				t.Fatal("expired c was served")
			}
			store("d", 0)
			if idOf("d") != cid {
				t.Fatalf("expiry: d took record %d, c's was %d", idOf("d"), cid)
			}
			check("expiry", "d", "v-d")

			// One 64-byte class-0 slab: the 65th store evicts the oldest
			// resident, b, and takes its record.
			for i := 0; c.Items() < 64; i++ {
				store("f"+strconv.Itoa(i), 0)
			}
			bid := idOf("b")
			store("last", 0)
			if idOf("b") != 0 || idOf("last") != bid {
				t.Fatalf("eviction: last took record %d, b's was %d", idOf("last"), bid)
			}
			check("eviction", "last", "v-last")
			check("eviction", "d", "v-d")
		})
	}
}

// TestRecordCompactionRewritesSlot: a slab migration's compaction moves the
// residents of the page it empties to other slots of their class. Each keeps
// its record and id; only the record's slot address changes, and its key and
// value read back from the new slot.
func TestRecordCompactionRewritesSlot(t *testing.T) {
	c, err := New(Config{Geometry: smallGeom(), CacheBytes: 4 * 4096, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 96; i++ { // three class-1 pages of 32 slots
		k := "a" + strconv.Itoa(i)
		if err := c.Set(k, 100, 0.01, 0, selfValue(uint64(i)+1, 90)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 96; i += 3 { // a slab's worth of free slots, on every page
		c.Delete("a" + strconv.Itoa(i))
	}
	type place struct {
		id   uint32
		slot uintptr
	}
	was := map[string]place{}
	c.index.Range(func(id uint32, it *kv.Item) bool {
		was[strings.Clone(it.Key())] = place{id, it.Slot} // the key's bytes move
		return true
	})
	c.mu.Lock()
	err = c.MigrateSlab(1, 0, 0)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k, p := range was {
		it := c.record(k)
		if id := c.index.Get(kv.HashString(k), k); id != p.id {
			t.Fatalf("%s moved from record %d to %d", k, p.id, id)
		}
		if it.Slot != p.slot {
			moved++
		}
		if it.Key() != k || !selfValueIntact(it.Value()) || len(it.Value()) != 90 {
			t.Fatalf("%s reads back %q with a %d-byte value", k, it.Key(), len(it.Value()))
		}
	}
	if st := c.Stats(); moved == 0 || uint64(moved) != st.SlabRelocations {
		t.Fatalf("%d records changed slot, %d values were relocated (want the same, > 0)", moved, st.SlabRelocations)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordSnapshotRoundTrip: a snapshot written from one engine's records
// and loaded into another rebuilds every stack record for record — key,
// value, size, flags, expiry, penalty, class, subclass, bottom first — in
// a value-storing engine and in a metadata-only one.
func TestRecordSnapshotRoundTrip(t *testing.T) {
	for _, values := range []bool{true, false} {
		t.Run(fmt.Sprintf("values=%v", values), func(t *testing.T) {
			build := func() *Cache {
				c, err := New(Config{Geometry: smallGeom(), CacheBytes: 8 * 4096, StoreValues: values,
					WindowLen: 1 << 50, Now: func() int64 { return 1_000 }}, &nullPolicy{bounds: []float64{0.01, 5}})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			src := build()
			for i := 0; i < 120; i++ {
				k := fmt.Sprintf("k%03d", i)
				v := bytes.Repeat([]byte{byte(i)}, 10+i%150)
				if err := src.SetTTL(k, 20+i%150, []float64{0.001, 0.1, 9}[i%3], uint32(i), int64(5_000+i%2*i), v); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := src.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			dst := build()
			if err := dst.LoadSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			type rec struct {
				item       kv.Item
				key, value string
			}
			stacks := func(c *Cache) (out [][]rec) {
				for ci := range c.classes {
					for si := range c.classes[ci].subs {
						var s []rec
						for _, it := range StackOf(c, ci, si) {
							r := *it
							r.Slot, r.Prev, r.Next, r.CAS = 0, 0, 0, 0
							s = append(s, rec{r, it.Key(), string(it.Value())})
						}
						out = append(out, s)
					}
				}
				return out
			}
			if got, want := stacks(dst), stacks(src); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored stacks differ:\n got  %+v\n want %+v", got, want)
			}
			if err := dst.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
