package cache

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

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
// and weighs the heap the fill left behind. Records, keys and values all sit
// in the value pages outside the heap, each item in its slot, and the index
// is mapped outside the heap too, so the live objects grow by under 1 % of
// the residents where one object per item would double them, and the heap
// in use grows by at most 2 bytes a resident: the index on the heap (16–32
// bytes a resident) or a 64-byte record there breaks the gate. The index
// slot holds no pointer either, and no record memory is left outside the
// pages (record_bytes 0).
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
	heap := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("%d residents: %d more heap objects, %d more heap bytes in use (%.1f a resident)",
		residents, grew, heap, float64(heap)/residents)
	if grew >= residents/100 {
		t.Fatalf("%d residents left %d more heap objects, want under %d (1 %%)", residents, grew, residents/100)
	}
	if heap > 2*residents {
		t.Fatalf("%d residents grew the heap in use by %d bytes, %.1f each; want at most 2 each",
			residents, heap, float64(heap)/residents)
	}
	if got := c.Introspect().RecordBytes; got != 0 {
		t.Fatalf("record_bytes = %d, want 0: a value-storing engine's records are in its slots", got)
	}
	runtime.KeepAlive(c)
}

// TestGhostsAndIndexOffHeap fills a value-storing engine's ghost regions: 131
// k residents grow its index to 2 MiB and 70 k more stores leave 65 k ghosts
// in 2 MiB of records and buckets. Both tables are mapped outside the Go
// heap, so while index_bytes + ghost_bytes exceed 4 MiB the heap in use grows
// by under 1 MiB; either table on the heap breaks the gate.
func TestGhostsAndIndexOffHeap(t *testing.T) {
	c, err := New(Config{CacheBytes: 16 << 20, StoreValues: true}, &nullPolicy{gseg: 8})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	key := make([]byte, 0, 16)
	for i := 0; i < 16*8192+70_000; i++ { // 16 slabs of 128-byte slots, then evictions
		key = strconv.AppendInt(append(key[:0], "key-"...), int64(i), 10)
		if err := c.Set(string(key), 100, 0.01, 0, key); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	in := c.Introspect()
	heap := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("%d residents, %d ghosts: index_bytes %d, ghost_bytes %d, %d more heap bytes in use",
		in.Items, in.GhostEntries, in.IndexBytes, in.GhostBytes, heap)
	if in.IndexBytes+in.GhostBytes <= 4<<20 {
		t.Fatalf("index_bytes %d + ghost_bytes %d, want over 4 MiB", in.IndexBytes, in.GhostBytes)
	}
	if heap >= 1<<20 {
		t.Fatalf("the heap in use grew by %d bytes, want under 1 MiB: the index or the ghosts are on the heap", heap)
	}
	runtime.KeepAlive(c)
}

// TestRecordAddressing pins how an id finds its record: ID(p, i) is page p's
// base plus 64·i, whatever holds the page. A chunk store hands out
// kv.ChunkLen records a page id and goes on to the next id's page past them,
// keeping the key HoldKey gave each. A value engine packs every page's
// records at its head, whatever the class cut it, and puts slot i's key at
// base + spc·64 + i·(slot−64), in the data area after the record block.
// New refuses a value geometry whose class 0 has more slots in a slab than
// an id's kv.PageBits low bits index, or more slabs than its high bits name;
// the default geometry, 16 384 slots of 64 bytes a slab, is the largest page
// that fits.
func TestRecordAddressing(t *testing.T) {
	var recs kv.Records
	held := map[uint32]string{}
	for n := 1; n < 3*kv.ChunkLen; n++ {
		id, it := recs.New()
		if want := kv.ID(uint32(n/kv.ChunkLen), n%kv.ChunkLen); id != want {
			t.Fatalf("record %d of the chunk store has id %#x, want %#x", n, id, want)
		}
		pid, i := kv.PageOf(id)
		if got, base := uintptr(unsafe.Pointer(it)), uintptr(unsafe.Pointer(recs.At(kv.ID(pid, 0)))); got != base+uintptr(64*i) {
			t.Fatalf("record %#x at %#x, want its chunk's base %#x + 64·%d", id, got, base, i)
		}
		held[id] = "key-" + strconv.Itoa(n)
		recs.HoldKey(id, held[id])
	}
	for id, key := range held {
		if got := recs.At(id).Key(); got != key {
			t.Fatalf("record %#x holds key %q, want %q", id, got, key)
		}
	}

	c, err := New(Config{Geometry: valueGeom(), CacheBytes: 6 * 4096, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{20, 100, 300, 700, 30, 150} { // classes 0-3 of 128-1024 bytes
		key := "k" + strconv.Itoa(i)
		if err := c.Set(key, 0, 0.01, 0, bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	keys := 0
	for ci := range c.classes {
		k := &c.classes[ci]
		for _, p := range k.pages {
			for i := range k.spc {
				id := kv.ID(p.id, i)
				if it := c.recs.At(id); unsafe.Pointer(it) != unsafe.Pointer(&p.mem.S()[64*i]) {
					t.Fatalf("class %d: record %d of page %d is not 64·%d bytes into the page", ci, i, p.id, i)
				} else if slices.Contains(k.vfree, id) {
					continue
				} else if room := k.spc*64 + i*(k.slot-64); unsafe.StringData(it.Key()) != &p.mem.S()[room] {
					t.Fatalf("class %d: %s of slot %d is not at byte %d, its room past the %d records", ci, it.Key(), i, room, k.spc)
				}
				keys++
			}
		}
	}
	if keys != 6 {
		t.Fatalf("found %d residents in the pages, want 6", keys)
	}

	for _, tc := range []struct {
		slab, budget int64
		ok           bool
	}{
		{1 << 20, 64 << 20, true},        // the default: 16 384 slots of class 0
		{2 << 20, 64 << 20, false},       // 32 768 slots of class 0
		{4096, (1<<18 - 1) * 4096, true}, // the most slabs an id names
		{4096, 1 << 18 * 4096, false},    // one more
	} {
		g := kv.Geometry{SlabSize: int(tc.slab), Base: 64, NumClasses: 4}
		_, err := New(Config{Geometry: g, CacheBytes: tc.budget, StoreValues: true}, &nullPolicy{})
		if (err == nil) != tc.ok {
			t.Errorf("%d slabs of %d bytes from 64-byte slots: New = %v, want ok %v", tc.budget/tc.slab, tc.slab, err, tc.ok)
		}
		if _, err := New(Config{Geometry: g, CacheBytes: tc.budget}, &nullPolicy{}); err != nil {
			t.Errorf("%d slabs of %d bytes: a metadata-only engine refused them: %v", tc.budget/tc.slab, tc.slab, err)
		}
	}
}

// TestRecordsGivenBackOnFlush: a flush frees every record of a metadata-only
// engine, whose records are heap chunks, and the store gives its chunks back
// with the last one, so record_bytes falls from 120 k residents' chunks to 0
// and the next store takes one chunk afresh.
func TestRecordsGivenBackOnFlush(t *testing.T) {
	const residents = 120_000
	c, err := New(Config{CacheBytes: 32 << 20}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < residents; i++ {
		if err := c.Set("key-"+strconv.Itoa(i), 40, 0.01, 0, nil); err != nil {
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
	if err := c.Set("again", 40, 0.01, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Introspect().RecordBytes; got != kv.ChunkLen*64 {
		t.Fatalf("record_bytes = %d after one store, want one chunk", got)
	}
	if _, _, hit := c.Get("again", 0, 0, nil); !hit {
		t.Fatal("Get(again) missed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexGivenBackOnFlush: the index grows with 120 k residents and drops
// back to its first size when a flush removes the last of them, so
// index_bytes reads what a new engine's does, and the next store is indexed
// and found.
func TestIndexGivenBackOnFlush(t *testing.T) {
	const residents = 120_000
	build := func() *Cache {
		c, err := New(Config{CacheBytes: 32 << 20, StoreValues: true}, &nullPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c, fresh := build(), build().Introspect().IndexBytes
	for i := 0; i < residents; i++ {
		key := "key-" + strconv.Itoa(i)
		if err := c.Set(key, 40, 0.01, 0, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Introspect().IndexBytes; got <= fresh {
		t.Fatalf("index_bytes = %d at %d residents, a new engine's is %d: the index did not grow", got, residents, fresh)
	}
	c.Flush()
	if in := c.Introspect(); in.IndexBytes != fresh || in.Items != 0 {
		t.Fatalf("after Flush: %d items in %d index bytes, want none in a new engine's %d", in.Items, in.IndexBytes, fresh)
	}
	if err := c.Set("again", 40, 0.01, 0, []byte("v")); err != nil {
		t.Fatal(err)
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

			// The budget is one slab, of the class every store lands in (0
			// without values, 1 with a record ahead of key and value): the
			// store after it is full evicts the oldest resident, b, and
			// takes its record.
			for i, spc := 0, c.SlotsPerSlab(int(c.record("b").Class)); c.Items() < spc; i++ {
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

// TestRecordCompactionRewritesSlot: compaction empties the page a slab takes
// with it by copying each resident there, record, key and value, into a free
// slot of its class, and the slot's id becomes the item's. A migration and a
// donation each force it while residents sit on the donor page. Every moved
// item has a new id, the index finds it by key with its value intact, it
// holds its LRU position and segment tag (the exact tracker's boundaries
// follow it), and the engine's invariants hold; every other item keeps its
// id.
func TestRecordCompactionRewritesSlot(t *testing.T) {
	c, err := New(Config{Geometry: valueGeom(), CacheBytes: 3 * 4096, StoreValues: true, WindowLen: 1 << 50},
		&nullPolicy{nseg: 2})
	if err != nil {
		t.Fatal(err)
	}
	values := map[string][]byte{}
	set := func(key string, n int) {
		t.Helper()
		v := selfValue(uint64(len(values))*7919+1, n)
		if err := c.Set(key, 0, 0.01, 0, v); err != nil {
			t.Fatal(err)
		}
		values[key] = v
	}
	del := func(key string) {
		c.Delete(key)
		delete(values, key)
	}
	type place struct {
		id       uint32
		pos, seq int // from the bottom of the stack; the segment tag
	}
	places := func() map[string]place {
		out := map[string]place{}
		for ci := range c.classes {
			pos := 0
			c.classes[ci].subs[0].list.AscendFromBack(func(id uint32, it *kv.Item) bool {
				out[strings.Clone(it.Key())] = place{id, pos, int(it.Seq)}
				pos++
				return true
			})
		}
		return out
	}
	// compact runs op, which must compact the page of class cl with the
	// fewest residents, and checks every item against where it was.
	compact := func(step string, cl int, op func() error) {
		t.Helper()
		donor := c.classes[cl].pages[0]
		for _, p := range c.classes[cl].pages {
			if p.used < donor.used || p.used == donor.used && p.id < donor.id {
				donor = p
			}
		}
		if donor.used == 0 {
			t.Fatalf("%s: the donor page holds no resident", step)
		}
		// A read makes a resident of the donor page the stack's front: the
		// stack holds whole segments, so it is the top one's boundary.
		var front string
		c.index.Range(func(id uint32, it *kv.Item) bool {
			if pid, _ := kv.PageOf(id); pid == donor.id {
				front = strings.Clone(it.Key())
			}
			return front == ""
		})
		if _, _, hit := c.Get(front, 0, 0, nil); !hit {
			t.Fatalf("%s: %s missed", step, front)
		}
		was, relocated := places(), c.Stats().SlabRelocations
		if err := op(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		now, moved := places(), 0
		for key, p := range was {
			q, ok := now[key]
			switch pid, _ := kv.PageOf(p.id); {
			case !ok:
				t.Fatalf("%s: %s is gone", step, key)
			case pid != donor.id && q.id != p.id:
				t.Fatalf("%s: %s moved from record %d to %d off a page that stays", step, key, p.id, q.id)
			case pid == donor.id && q.id == p.id:
				t.Fatalf("%s: %s still has record %d on the page that left", step, key, p.id)
			case q.pos != p.pos || q.seq != p.seq:
				t.Fatalf("%s: %s was at position %d tagged %d, is at %d tagged %d", step, key, p.pos, p.seq, q.pos, q.seq)
			case pid == donor.id:
				moved++
			}
			if id := c.index.Get(kv.HashString(key), key); id != q.id {
				t.Fatalf("%s: the index names %s by record %d, its stack by %d", step, key, id, q.id)
			}
		}
		if got := c.Stats().SlabRelocations - relocated; moved == 0 || got != uint64(moved) {
			t.Fatalf("%s: %d items changed record, %d values were relocated (want the same, > 0)", step, moved, got)
		}
		for key, v := range values {
			if got, _, hit := c.Get(key, 0, 0, nil); !hit || !bytes.Equal(got, v) {
				t.Fatalf("%s: %s reads %x (hit %v), stored %x", step, key, got, hit, v)
			}
		}
	}

	for i := 0; i < 96; i++ { // three class-0 pages of 32 slots: the budget
		set("a"+strconv.Itoa(i), 40)
	}
	for i := 0; i < 96; i += 3 { // a slab's worth of free slots, on every page
		del("a" + strconv.Itoa(i))
	}
	compact("migration", 0, func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.MigrateSlab(0, 0, 1)
	})

	for i := 0; i < 16; i++ { // fill class 1's page, so the donation drains class 0
		set("b"+strconv.Itoa(i), 150)
	}
	for i := 1; i < 96; i += 3 { // two thirds of class 0 left: a slab's worth free again
		del("a" + strconv.Itoa(i))
	}
	compact("donation", 0, c.DonateSlab)
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
