package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pamakv/internal/kv"
	"pamakv/internal/mrc"
	"pamakv/internal/valuetable"
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
// serve-stale copy and slab migration between classes, with its compaction —
// runs against a model of the last bytes stored under each key, while
// concurrent readers verify that no value they are handed is torn. A slot
// shared by two items, or recycled while still referenced, shows up as a byte
// mismatch; under -race, which cannot see the value pages, every slot a value
// leaves is filled with 0xDB, so a reply that aliases a slot instead of
// copying it fails here the moment the slot is let go. Keys share their
// item's slot, so every checkpoint also holds on to the keys ScanKeys
// reported at the one before and finds them unchanged. CheckInvariants adds
// the structural check (slot ownership against the slab accounting, each key
// at the head of its slot's room). Rerun a failure with PAMA_MODEL_SEED=<logged seed>.
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
		Geometry:    valueGeom(), // 4 KiB slabs, slots 128/256/512/1024
		CacheBytes:  8 * 4096,
		StoreValues: true,
		Stale:       valuetable.New(8<<10, 0),
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
	const overhead = itemHeader + 8
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
	// scanned holds the keys ScanKeys reported at the last checkpoint, each
	// with a copy made the moment it was reported.
	var scanned [][2]string

	const ops = 12000
	for op := 0; op < ops; op++ {
		if rng.Intn(25) == 0 {
			now.Add(int64(1 + rng.Intn(3)))
		}
		// The size mix drifts from small to large values and back, so
		// demand (and slabs) move across all four classes.
		maxLen := 40 + (1000-overhead-40)*(op%3000)/3000
		if (op/3000)%2 == 1 {
			maxLen = 1040 - overhead - maxLen
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
			if len(combined)+overhead > 1024 {
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
			for _, kc := range scanned {
				if kc[0] != kc[1] {
					t.Fatalf("op %d: a key ScanKeys reported as %q reads %q", op, kc[1], kc[0])
				}
			}
			scanned = scanned[:0]
			c.ScanKeys(func(key string, _ float64, _ int, _ int64) bool {
				scanned = append(scanned, [2]string{key, strings.Clone(key)})
				return true
			})
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
	if st.Evictions == 0 || st.Expired == 0 || st.SlabMigrations == 0 || st.SlabRelocations == 0 || !sawStack {
		t.Fatalf("run did not exercise every recycle path: %+v, stacks seen %v", st, sawStack)
	}
}

// TestCheckInvariantsCatchesStackViolations corrupts slot ownership each way
// the invariant names and expects each to be reported.
func TestCheckInvariantsCatchesStackViolations(t *testing.T) {
	fill := func() *Cache {
		c, err := New(Config{Geometry: valueGeom(), CacheBytes: 2 * 4096, StoreValues: true}, &nullPolicy{})
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
		if got, want := c.Introspect().FreeValueBuffers[0], 4096/128-7; got != want {
			t.Fatalf("class 0 stacks %d slots with 7 of its page's %d held, want %d", got, 4096/128, want)
		}
		return c
	}
	for name, tc := range map[string]struct {
		corrupt func(c *Cache)
		want    string
	}{
		"over the free-slot bound": {func(c *Cache) {
			k := &c.classes[0]
			k.vfree = append(k.vfree, k.vfree[0])
		}, "slab accounting has"},
		"stacked twice": {func(c *Cache) {
			k := &c.classes[0]
			k.vfree[1] = k.vfree[0]
		}, "stacks one value slot twice"},
		"stacked while resident": {func(c *Cache) {
			c.classes[0].vfree[0] = c.index.Get(kv.HashString("k1"), "k1")
		}, "also on class 0's free stack"},
		"past the slot's end": {func(c *Cache) {
			c.record("k1").VLen = uint32(128 - itemHeader - 1)
		}, "holds no resident of the class, key and value in its room"},
		"off the slot's room": {func(c *Cache) {
			c.record("k1").Slot++
		}, "holds no resident of the class, key and value in its room"},
		"page without a slab": {func(c *Cache) {
			c.classes[1].pages = append(c.classes[1].pages, c.classes[0].pages[0])
		}, "slab accounting says 0 slabs"},
	} {
		c := fill()
		tc.corrupt(c)
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestSlotStackFollowsSlabAccounting pins the ownership rule: a class stacks
// exactly its free slots, a slab leaving it takes one page's worth, and the
// receiving class stacks the whole page at its own slot size.
func TestSlotStackFollowsSlabAccounting(t *testing.T) {
	c, err := New(Config{Geometry: valueGeom(), CacheBytes: 2 * 4096, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	const spc = 4096 / 128
	for i := 0; i < 2*spc; i++ { // both slabs go to class 0, full
		if err := c.Set("k"+strconv.Itoa(i), 60, 0.01, 0, []byte("value"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	stacked := func() []int { return c.Introspect().FreeValueBuffers }
	if got := stacked()[0]; got != 0 {
		t.Fatalf("a full class 0 stacks %d slots", got)
	}
	for i := 0; i < 2*spc; i++ { // every odd key and five even ones: both pages thinned
		if i%2 == 1 || i < 10 {
			c.Delete("k" + strconv.Itoa(i))
		}
	}
	free := c.FreeSlots(0)
	if got := stacked()[0]; got != free {
		t.Fatalf("class 0 stacks %d slots, it has %d free", got, free)
	}
	c.mu.Lock()
	err = c.MigrateSlab(0, 0, 2)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := stacked(); got[0] != free-spc || got[2] != 4096/512 {
		t.Fatalf("after a slab left class 0 the stacks hold %v, want %d in class 0 and %d in class 2",
			got, free-spc, 4096/512)
	}
	for i := 0; i < 2*spc; i++ {
		key := "k" + strconv.Itoa(i)
		if v, _, hit := c.Get(key, 0, 0, nil); hit && string(v) != "value"+strconv.Itoa(i) {
			t.Fatalf("%s reads %q after the migration", key, v)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionKeepsValues fills two classes with self-describing values,
// thins them so that every page holds residents, then forces a migration and
// a donation. The page each one takes must be the donor class's page with the
// fewest residents, emptied by moving those residents to its other pages:
// afterwards every resident reads back intact, its record in its new page's
// record block and its key at the head of its new slot's room, and every
// class owns exactly one page per slab.
func TestCompactionKeepsValues(t *testing.T) {
	const budget = 6
	c, err := New(Config{Geometry: valueGeom(), CacheBytes: budget * 4096, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	last := map[string][]byte{}
	set := func(key string, n int) {
		t.Helper()
		v := selfValue(uint64(len(last))*7919+1, n)
		if err := c.Set(key, n+8, 0.01, 0, v); err != nil {
			t.Fatal(err)
		}
		last[key] = v
	}
	del := func(key string) {
		c.Delete(key)
		delete(last, key)
	}
	audit := func(step string) {
		t.Helper()
		for key, want := range last {
			if got, _, hit := c.Get(key, 0, 0, nil); !hit || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s reads %x (hit %v), stored %x", step, key, got, hit, want)
			}
			id := c.index.Get(kv.HashString(key), key)
			it := c.record(key)
			pid, i := kv.PageOf(id)
			k := &c.classes[it.Class]
			if p := c.arena.pages[pid]; unsafe.Pointer(it) != unsafe.Pointer(&p.mem.S()[i*itemHeader]) ||
				unsafe.StringData(it.Key()) != &p.mem.S()[k.spc*itemHeader+i*(k.slot-itemHeader)] {
				t.Fatalf("%s: %s's record is not record %d of its page's head, its key not in slot %d's room", step, key, i, i)
			}
		}
		scanned := 0
		c.ScanKeys(func(key string, _ float64, _ int, _ int64) bool {
			if _, ok := last[key]; !ok {
				t.Fatalf("%s: ScanKeys reports %q, which was never stored or was deleted", step, key)
			}
			scanned++
			return true
		})
		if scanned != len(last) {
			t.Fatalf("%s: ScanKeys reports %d keys, %d are stored", step, scanned, len(last))
		}
		for cl := range c.classes {
			if got, want := len(c.classes[cl].pages), c.Slabs(cl); got != want {
				t.Fatalf("%s: class %d owns %d pages and %d slabs", step, cl, got, want)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	// fewest returns the page of class cl compaction must pick.
	fewest := func(cl int) *page {
		var best *page
		for _, p := range c.classes[cl].pages {
			if best == nil || p.used < best.used || p.used == best.used && p.id < best.id {
				best = p
			}
		}
		return best
	}

	// Three pages of class 0 (32 slots each), three of class 1 (16 each).
	for i := 0; i < 96; i++ {
		set("a"+strconv.Itoa(i), 40)
	}
	for i := 0; i < 48; i++ {
		set("b"+strconv.Itoa(i), 150)
	}
	// Every third class-0 value goes: a slab's worth of free slots, spread
	// over all three pages, so the migration evicts nothing and must move.
	for i := 0; i < 96; i += 3 {
		del("a" + strconv.Itoa(i))
	}
	audit("filled")

	donor := fewest(0)
	moved := donor.used
	c.mu.Lock()
	err = c.MigrateSlab(0, 0, 1)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 0 || st.SlabRelocations != uint64(moved) {
		t.Fatalf("migration evicted %d and moved %d values, want 0 and the donor page's %d",
			st.Evictions, st.SlabRelocations, moved)
	}
	if !slices.Contains(c.classes[1].pages, donor) || slices.Contains(c.classes[0].pages, donor) {
		t.Fatal("the page class 1 received is not the class-0 page compaction emptied")
	}
	audit("migrated")

	// Fill class 1's new page, then thin all four of its pages evenly: the
	// donation's page holds residents that must move too.
	for i := 48; i < 64; i++ {
		set("b"+strconv.Itoa(i), 150)
	}
	for i := 0; i < 64; i += 4 {
		del("b" + strconv.Itoa(i))
	}
	audit("refilled")
	if c.FreeSlabs() != 0 {
		t.Fatalf("%d free slabs: the donation would not need a page", c.FreeSlabs())
	}
	donor = fewest(1)
	moved, before := donor.used, c.Stats().SlabRelocations
	if err := c.DonateSlab(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SlabRelocations - before; got != uint64(moved) || moved == 0 {
		t.Fatalf("donation moved %d values, want the donor page's %d (> 0)", got, moved)
	}
	if c.arena.pages[donor.id] != nil || c.arena.mapped() != budget-1 {
		t.Fatalf("the donated page is still mapped (%d pages mapped)", c.arena.mapped())
	}
	if got := c.Introspect().ValueSlabBytes; got != (budget-1)*4096 {
		t.Fatalf("value_slab_bytes = %d, want %d", got, (budget-1)*4096)
	}
	audit("donated")
}

// TestSlotsHoldTheRecord: a value-storing engine heads every slot with its
// item's 64-byte record, so New refuses a geometry whose smallest slot is
// shorter or whose slots are not 8-byte multiples; a metadata-only engine
// takes either, and the default geometry passes.
func TestSlotsHoldTheRecord(t *testing.T) {
	for _, g := range []kv.Geometry{
		{SlabSize: 4096, Base: 32, NumClasses: 4},
		{SlabSize: 4096, NumClasses: 3, Slots: []int{64, 100, 200}},
	} {
		if _, err := New(Config{Geometry: g, CacheBytes: 4 * 4096, StoreValues: true}, &nullPolicy{}); err == nil {
			t.Errorf("a value-storing engine took slots %d..%d", g.SlotSize(0), g.MaxItemSize())
		}
		if _, err := New(Config{Geometry: g, CacheBytes: 4 * 4096}, &nullPolicy{}); err != nil {
			t.Errorf("a metadata-only engine refused slots %d..%d: %v", g.SlotSize(0), g.MaxItemSize(), err)
		}
	}
	c, err := New(Config{CacheBytes: 4 << 20, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", 0, 0.01, 0, nil); err != nil {
		t.Fatal(err)
	}
	if it := c.record("k"); it == nil || it.Class != 1 || int(it.Size) != itemHeader+1 {
		t.Fatalf("k = %+v, want class 1 (128 bytes) of size %d: a record and a 1-byte key", it, itemHeader+1)
	}
}

// TestValuePagesUnmappedWithEngine builds and drops 500 rounds of a
// value-storing engine, a metadata-only engine and an internal/mrc tracker.
// Each engine has grown its index past its first size (4 200 residents) and
// holds 3 000 ghosts, and the tracker has grown its own index; the value
// engine holds two 1 MiB pages. Once the collector has run their mappings'
// finalizers everything is unmapped, so neither the process's mappings nor
// its usable address space grow with what it has dropped. Left mapped, the
// indexes alone would take 188 MiB of address space, the ghosts 110 MiB and
// the pages 1 GiB, against a 64 MiB bound. The kernel merges adjacent
// anonymous mappings, so the count of mappings may not show a leak, and a
// new thread's C-library arena reserves 64 MiB, so the whole address space
// (VmSize) grows without one.
func TestValuePagesUnmappedWithEngine(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	proc := func(file string) string {
		b, err := os.ReadFile("/proc/self/" + file)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// usableKiB sums the mappings the process can read or write: what a
	// leaked mapping adds to, while the reservations that the runtime and
	// the C library grow in 64 MiB steps (---p) do not count.
	usableKiB := func() int {
		n := 0
		for _, line := range strings.Split(proc("maps"), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 || f[1] == "---p" {
				continue
			}
			lo, hi, _ := strings.Cut(f[0], "-")
			a, _ := strconv.ParseUint(lo, 16, 64)
			b, _ := strconv.ParseUint(hi, 16, 64)
			n += int((b - a) >> 10)
		}
		return n
	}
	settle := func() {
		for i := 0; i < 5; i++ {
			runtime.GC()
			time.Sleep(20 * time.Millisecond)
		}
	}
	const residents, ghosts = 4200, 3000
	keys := make([]string, residents+kv.DefaultGeometry().SlotsPerSlab(4)+ghosts)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	// fill grows c's index with residents of class 1 and, in the page of
	// class 4, evicts ghosts of them.
	fill := func(c *Cache) {
		for i, k := range keys {
			size := 100 // class 1, 128-byte slots
			if i >= residents {
				size = 1000 // class 4, 1 KiB slots
			}
			if err := c.Set(k, size, 0.01, 0, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if in := c.Introspect(); in.IndexBytes < 128<<10 || in.GhostEntries < ghosts {
			t.Fatalf("index_bytes %d and %d ghosts, want a grown index and %d ghosts", in.IndexBytes, in.GhostEntries, ghosts)
		}
	}
	settle()
	lines, size := strings.Count(proc("maps"), "\n"), usableKiB()
	for i := 0; i < 500; i++ {
		for _, values := range []bool{true, false} {
			c, err := New(Config{CacheBytes: 2 << 20, StoreValues: values}, &nullPolicy{gseg: 3})
			if err != nil {
				t.Fatal(err)
			}
			fill(c)
		}
		tr := mrc.NewTracker(64, residents/64+1)
		for _, k := range keys[:residents] {
			tr.Access(k, kv.HashString(k))
		}
	}
	settle()
	grown := usableKiB() - size
	t.Logf("usable address space grew by %d KiB", grown)
	if grown > 64<<10 {
		t.Errorf("the usable address space grew by %d MiB: dropped engines' pages, indexes or ghosts are still mapped", grown>>10)
	}
	if got := strings.Count(proc("maps"), "\n"); got > lines+64 {
		t.Errorf("/proc/self/maps grew from %d to %d lines", lines, got)
	}
}

// TestDeltaKeepsItsSlot pins incr/decr at both edges of a slot: digits that
// still fit are rewritten in place with the item's size (and its class's
// holes) moved by the change in length, and digits that outgrow the slot are
// stored afresh in the next class, leaving no slot behind.
func TestDeltaKeepsItsSlot(t *testing.T) {
	c, err := New(Config{Geometry: valueGeom(), CacheBytes: 4 * 4096, StoreValues: true}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step, key, want string, class int, size int) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		it := c.record(key)
		if it == nil || string(it.Value()) != want || int(it.Class) != class || int(it.Size) != size {
			t.Fatalf("%s: %s = %+v, want %q in class %d of size %d", step, key, it, want, class, size)
		}
	}
	delta := func(key string, d uint64, decr bool, want uint64) {
		t.Helper()
		if got, err := c.Delta(key, d, decr); err != nil || got != want {
			t.Fatalf("delta %s: %d, %v; want %d", key, got, err, want)
		}
	}
	// In place: "9" → "10" → "9", the size following the digits.
	if err := c.Set("n", 84, 0.01, 0, []byte("9")); err != nil {
		t.Fatal(err)
	}
	check("set", "n", "9", 0, 84)
	delta("n", 1, false, 10)
	check("incr past a digit", "n", "10", 0, 85)
	delta("n", 1, true, 9)
	check("decr below a digit", "n", "9", 0, 84)

	// A library caller's size below the record, key and value is raised to
	// their sum: all three sit in the slot.
	if err := c.Set("s", 1, 0.01, 0, []byte("12345")); err != nil {
		t.Fatal(err)
	}
	check("short size", "s", "12345", 0, itemHeader+6)

	// Outgrown: a full 128-byte slot takes a digit more, into class 1.
	if err := c.Set("m", 128, 0.01, 0, []byte("99")); err != nil {
		t.Fatal(err)
	}
	check("set at the slot size", "m", "99", 0, 128)
	delta("m", 1, false, 100)
	check("incr past the slot", "m", "100", 1, 129)
	if used := c.UsedSlots(0); used != 2 {
		t.Fatalf("class 0 holds %d slots, want the 2 of n and s", used)
	}
	delta("m", 900, false, 1000)
	check("incr in the new slot", "m", "1000", 1, 130)
}

// TestRetainedKeysSurviveEvictions: a key ScanKeys reported and a stale-buffer
// entry both outlive the item whose slot held the key, so both must be copies.
// Every original item is evicted and its slot reused by other keys, with slab
// migrations between classes; under -race each slot an item leaves is
// poisoned first. The retained keys must still read as stored, and every stale
// entry must still be found by its key and hold its value.
func TestRetainedKeysSurviveEvictions(t *testing.T) {
	pol := &nullPolicy{gseg: 1}
	pol.makeRoom = func(class, _ int) {
		for cl := 0; cl < pol.c.NumClasses(); cl++ {
			if cl != class && pol.c.Slabs(cl) > 1 {
				_ = pol.c.MigrateSlab(cl, 0, class)
				return
			}
		}
	}
	c, err := New(Config{Geometry: valueGeom(), CacheBytes: 4 * 4096, StoreValues: true, Stale: valuetable.New(1<<20, 0)}, pol)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return "original-" + strconv.Itoa(i) }
	for i := 0; i < 64; i++ {
		if err := c.Set(key(i), 0, 0.01, 0, selfValue(uint64(i), 8+i%40)); err != nil {
			t.Fatal(err)
		}
	}
	var retained []string
	c.ScanKeys(func(k string, _ float64, _ int, _ int64) bool {
		retained = append(retained, k)
		return true
	})
	if len(retained) != 64 {
		t.Fatalf("ScanKeys reported %d keys, want 64", len(retained))
	}
	// Other keys, first small then large values, evict every original and
	// move slabs from class 0 to the larger classes.
	for i := 0; i < 2000; i++ {
		n := 16 + i%40
		if i >= 1000 {
			n = 150 + i%300
		}
		if err := c.Set("churn-"+strconv.Itoa(i), 0, 0.01, 0, bytes.Repeat([]byte{'x'}, n)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.SlabMigrations == 0 {
		t.Fatalf("the churn migrated no slab: %+v", st)
	}
	for _, k := range retained {
		if !strings.HasPrefix(k, "original-") {
			t.Fatalf("a retained key reads %q", k)
		}
		i, err := strconv.Atoi(strings.TrimPrefix(k, "original-"))
		if err != nil || key(i) != k {
			t.Fatalf("a retained key reads %q", k)
		}
		if c.Contains(k) {
			t.Fatalf("%s is still resident", k)
		}
		if v, _, ok := c.GetStale(k, nil); !ok || !bytes.Equal(v, selfValue(uint64(i), 8+i%40)) {
			t.Fatalf("stale read of %s = %x, %v; want its value", k, v, ok)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
