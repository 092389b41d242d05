package hashtable

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
)

// newTable returns New(capHint) over a fresh record store.
func newTable(capHint int) *Table { return New(new(kv.Records), capHint) }

// item makes a record in tb's store keyed key and returns its id.
func item(tb *Table, key string) uint32 { return forced(tb, key, kv.HashString(key)) }

// tinyHash keeps 3 bits of a key's hash and sets every bit above them, so
// any table sees at most 8 home slots, all at its end: runs collide, and
// once they outgrow the last slots they wrap to slot 0.
func tinyHash(key string) uint64 { return ^(kv.HashString(key) & 7) }

// tagHash is tinyHash with one bit of the key's own hash above the low 32
// bits, the slot's tag: the keys of one tag split between two full hashes,
// so a probe that trusts a tag match, or a full-hash match, answers for
// another key.
func tagHash(key string) uint64 { return tinyHash(key) ^ (kv.HashString(key)>>63)<<32 }

// forced makes a record in tb's store whose hash is h, whatever its key.
func forced(tb *Table, key string, h uint64) uint32 {
	id, it := tb.recs.New()
	tb.recs.HoldKey(id, key)
	it.Hash = h
	return id
}

// keyOf returns item id's key.
func keyOf(tb *Table, id uint32) string { return tb.recs.At(id).Key() }

func check(t *testing.T, tb *Table) {
	t.Helper()
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// slotOf returns the slot index holding id, or -1.
func slotOf(tb *Table, id uint32) int {
	for i, s := range tb.slots {
		if s.id == id {
			return i
		}
	}
	return -1
}

func TestGetMissing(t *testing.T) {
	tb := newTable(4)
	if tb.Get(kv.HashString("nope"), "nope") != 0 {
		t.Fatal("Get on empty table should return 0")
	}
}

func TestPutGetDelete(t *testing.T) {
	tb := newTable(4)
	a := item(tb, "a")
	h := kv.HashString("a")
	if tb.Put(a) != 0 {
		t.Fatal("first Put should not replace")
	}
	if got := tb.Get(h, "a"); got != a {
		t.Fatal("Get did not return stored item")
	}
	if got := tb.Delete(h, "a"); got != a {
		t.Fatal("Delete did not return stored item")
	}
	if tb.Get(h, "a") != 0 || tb.Len() != 0 {
		t.Fatal("item still present after Delete")
	}
	if tb.Delete(h, "a") != 0 {
		t.Fatal("second Delete should return 0")
	}
	check(t, tb)
}

func TestPutReplaces(t *testing.T) {
	tb := newTable(4)
	a1, a2 := item(tb, "a"), item(tb, "a")
	tb.Put(a1)
	if got := tb.Put(a2); got != a1 {
		t.Fatal("Put should return replaced item")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	if got := tb.Get(kv.HashString("a"), "a"); got != a2 {
		t.Fatal("Get should return the replacement")
	}
	check(t, tb)
}

func TestGrowthPreservesItems(t *testing.T) {
	tb := newTable(4)
	const n = 5000
	for i := 0; i < n; i++ {
		tb.Put(item(tb, fmt.Sprintf("key-%d", i)))
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	if len(tb.slots) < 2*n {
		t.Fatalf("table did not grow: %d slots for %d items", len(tb.slots), n)
	}
	check(t, tb)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if got := tb.Get(kv.HashString(k), k); got == 0 || keyOf(tb, got) != k {
			t.Fatalf("lost key %q after growth", k)
		}
	}
}

func TestCollidingHashesDistinctKeys(t *testing.T) {
	// Two different keys with identical hashes: the table must distinguish
	// them by key comparison.
	tb := newTable(4)
	a := forced(tb, "a", 12345)
	b := forced(tb, "b", 12345)
	tb.Put(a)
	tb.Put(b)
	if tb.Get(12345, "a") != a || tb.Get(12345, "b") != b {
		t.Fatal("hash-colliding keys confused")
	}
	if tb.Delete(12345, "a") != a {
		t.Fatal("failed to delete first collider")
	}
	if tb.Get(12345, "b") != b {
		t.Fatal("deleting one collider removed the other")
	}
	check(t, tb)
}

// TestTagCollisions: keys whose hashes share the low 32 bits, the slot's tag,
// and differ above them share a home and a tag in every table. Get, Put,
// Delete and Remove must find each key's own item and miss the keys of the
// same tag that are not stored; Peek may answer any item of the tag, FindHash
// only the item of the exact hash. The table grows while the keys go in.
func TestTagCollisions(t *testing.T) {
	const n = 10
	hashOf := func(k int) uint64 { return uint64(k+1)<<32 | 0x85f23ffc }
	keyName := func(k int) string { return string(rune('a' + k)) }
	tb := newTable(4)
	ids := map[int]uint32{} // the stored keys' items
	put := func(k int) {
		t.Helper()
		id := forced(tb, keyName(k), hashOf(k))
		if old := tb.Put(id); old != ids[k] {
			t.Fatalf("Put(%q) replaced %d, want %d", keyName(k), old, ids[k])
		}
		ids[k] = id
	}
	agree := func(step string) {
		t.Helper()
		check(t, tb)
		for k := 0; k <= n; k++ { // key n is never stored
			h, want := hashOf(k), ids[k]
			if got := tb.Get(h, keyName(k)); got != want {
				t.Fatalf("%s: Get(%q) = %d, want %d", step, keyName(k), got, want)
			}
			if got := tb.FindHash(h); got != want {
				t.Fatalf("%s: FindHash(%#x) = %d, want %d", step, h, got, want)
			}
			// Every stored item has the tag, so Peek finds one whenever one
			// is stored; the high half of its hash names its key.
			if got := tb.Peek(h); (got == 0) != (tb.Len() == 0) || got != 0 && ids[int(tb.recs.At(got).Hash>>32)-1] != got {
				t.Fatalf("%s: Peek(%#x) = %d, not a stored item of its tag", step, h, got)
			}
		}
	}
	for k := 0; k < n; k++ {
		put(k)
	}
	agree("put")
	put(0) // a second item of key a replaces the first
	agree("replace")
	if got := tb.Delete(hashOf(1), keyName(1)); got != ids[1] {
		t.Fatalf("Delete(b) = %d, want %d", got, ids[1])
	}
	delete(ids, 1)
	if tb.Delete(hashOf(n), keyName(n)) != 0 {
		t.Fatal("Delete of a key never stored found an item of its tag")
	}
	agree("delete")
	if !tb.Remove(ids[4]) || tb.Remove(ids[4]) {
		t.Fatal("Remove(e) did not remove it exactly once")
	}
	delete(ids, 4)
	if stray := forced(tb, keyName(5), hashOf(5)); tb.Remove(stray) {
		t.Fatal("Remove of an unstored item matched a stored item of its tag and key")
	}
	agree("remove")
	for k := range ids {
		tb.Remove(ids[k])
		delete(ids, k)
		agree("drain")
	}
}

// TestInsertGrows: Insert of keys probed absent is Put without the replace
// probe — the table still grows while it inserts and loses nothing.
func TestInsertGrows(t *testing.T) {
	tb := newTable(4)
	start := len(tb.slots)
	const n = 3000
	ids := make([]uint32, n)
	for i := range ids {
		k := fmt.Sprintf("key-%d", i)
		ids[i] = item(tb, k)
		if tb.Get(kv.HashString(k), k) != 0 {
			t.Fatalf("key %d present before its insert", i)
		}
		tb.Insert(ids[i])
		if tb.Len() != i+1 {
			t.Fatalf("Len = %d after %d inserts", tb.Len(), i+1)
		}
	}
	if len(tb.slots) < 2*n || len(tb.slots) == start {
		t.Fatalf("table did not grow: %d slots for %d items", len(tb.slots), n)
	}
	check(t, tb)
	for _, id := range ids {
		if it := tb.recs.At(id); tb.Get(it.Hash, it.Key()) != id {
			t.Fatalf("lost %q across growth", it.Key())
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for pos := 0; pos <= len(p); pos++ {
			q := append(append(append([]int{}, p[:pos]...), n-1), p[pos:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestRemoveByID removes every member of one probe run by id, in every
// order: the run starts at the last slot of a 16-slot table and wraps to slot
// 0, so its first, middle and last members sit on both sides of the wrap.
// Then an item whose home lies after the hole stays put, and an item that is
// not stored is not found.
func TestRemoveByID(t *testing.T) {
	for _, order := range permutations(4) {
		tb := newTable(4)
		if len(tb.slots) != 16 {
			t.Fatalf("New(4) has %d slots, the test assumes 16", len(tb.slots))
		}
		// Homes 14, 14, 15, 0 fill slots 14, 15, 0, 1: one run across the wrap.
		run := []uint32{forced(tb, "a", 14), forced(tb, "b", 14), forced(tb, "c", 15), forced(tb, "d", 0)}
		other := forced(tb, "other", 5)
		tb.Insert(other)
		for _, id := range run {
			tb.Insert(id)
		}
		for i, want := range []int{14, 15, 0, 1} {
			if got := slotOf(tb, run[i]); got != want {
				t.Fatalf("%q in slot %d, want %d", keyOf(tb, run[i]), got, want)
			}
		}
		check(t, tb)
		left := map[uint32]bool{run[0]: true, run[1]: true, run[2]: true, run[3]: true}
		for _, i := range order {
			if !tb.Remove(run[i]) {
				t.Fatalf("order %v: Remove(%q) found nothing", order, keyOf(tb, run[i]))
			}
			delete(left, run[i])
			check(t, tb)
			if tb.Remove(run[i]) {
				t.Fatalf("order %v: second Remove(%q) succeeded", order, keyOf(tb, run[i]))
			}
			for _, id := range run {
				it := tb.recs.At(id)
				if got := tb.Get(it.Hash, it.Key()); (got == id) != left[id] {
					t.Fatalf("order %v after removing %q: Get(%q) = %v, stored %v", order, keyOf(tb, run[i]), it.Key(), got != 0, left[id])
				}
			}
			if tb.Len() != len(left)+1 || tb.Get(5, "other") != other || slotOf(tb, other) != 5 {
				t.Fatalf("order %v: Len = %d with %d of the run left", order, tb.Len(), len(left))
			}
		}
	}

	// Homes 14, 14, 0, 0 fill slots 14, 15, 0, 1. Removing the item in slot
	// 15 leaves a hole before slot 0, the home of the two items after it:
	// moving either into slot 15 would put it before its home, out of reach.
	tb := newTable(4)
	a, b, e, f := forced(tb, "a", 14), forced(tb, "b", 14), forced(tb, "e", 0), forced(tb, "f", 0)
	for _, id := range []uint32{a, b, e, f} {
		tb.Insert(id)
	}
	if !tb.Remove(b) {
		t.Fatal("Remove(b) found nothing")
	}
	check(t, tb)
	if slotOf(tb, a) != 14 || slotOf(tb, e) != 0 || slotOf(tb, f) != 1 || tb.slots[15].id != 0 {
		t.Fatalf("a, e, f in slots %d, %d, %d; want 14, 0, 1 with 15 empty",
			slotOf(tb, a), slotOf(tb, e), slotOf(tb, f))
	}

	// An equal key is not the same item.
	tb = newTable(4)
	a1, a2 := item(tb, "a"), item(tb, "a")
	tb.Insert(a1)
	if tb.Remove(a2) || tb.Get(kv.HashString("a"), "a") != a1 || tb.Len() != 1 {
		t.Fatal("Remove matched an item by key, not by id")
	}
}

// TestPeek: Peek returns the first item of a probe run whose stored hash
// matches, comparing no key. Homes 14, 14, 15, 14 fill slots 14, 15, 0, 1 of
// a 16-slot table: one run across the wrap, with hash 14 on both sides of it.
func TestPeek(t *testing.T) {
	tb := newTable(4)
	if len(tb.slots) != 16 {
		t.Fatalf("New(4) has %d slots, the test assumes 16", len(tb.slots))
	}
	a, b, c, d := forced(tb, "a", 14), forced(tb, "b", 30), forced(tb, "c", 15), forced(tb, "d", 14)
	for _, id := range []uint32{a, b, c, d} {
		tb.Insert(id)
	}
	check(t, tb)
	if got := slotOf(tb, d); got != 1 {
		t.Fatalf("d in slot %d, want 1 (past the wrap)", got)
	}
	cases := []struct {
		hash uint64
		want uint32
		why  string
	}{
		{14, a, "two items share hash 14: the first of the run, whatever its key"},
		{30, b, "home 14, found past an item of another hash"},
		{15, c, "found across the wrap from its home's neighbour"},
		{46, 0, "home 14, the run holds no item of this hash: 0 at the empty slot 2"},
		{0, 0, "home 0 is inside the run; no item hashes to 0"},
		{5, 0, "empty home slot"},
	}
	for _, tc := range cases {
		if got := tb.Peek(tc.hash); got != tc.want {
			t.Errorf("Peek(%d) = %v, want %v: %s", tc.hash, got, tc.want, tc.why)
		}
	}
	// Once a leaves, Peek(14) finds d: backward shift moved the run up.
	tb.Remove(a)
	check(t, tb)
	if got := tb.Peek(14); got != d {
		t.Fatalf("after removing a, Peek(14) = %v, want d", got)
	}
	// Peek agrees with Get for every key of a spread-out table.
	tb = newTable(4)
	for i := 0; i < 500; i++ {
		tb.Insert(item(tb, fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		h := kv.HashString(k)
		if got, want := tb.Peek(h), tb.Get(h, k); got != want {
			t.Fatalf("Peek(%q) = %v, Get = %v", k, got, want)
		}
	}
}

func TestRangeVisitsAll(t *testing.T) {
	tb := newTable(4)
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		want[k] = true
		tb.Put(item(tb, k))
	}
	got := map[string]bool{}
	tb.Range(func(id uint32, it *kv.Item) bool {
		if tb.recs.At(id) != it {
			t.Fatalf("Range paired id %d with another record", id)
		}
		got[it.Key()] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d items, want %d", len(got), len(want))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := newTable(4)
	for i := 0; i < 10; i++ {
		tb.Put(item(tb, fmt.Sprintf("k%d", i)))
	}
	count := 0
	tb.Range(func(uint32, *kv.Item) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Range visited %d after stop, want 3", count)
	}
}

// TestAgainstMapModel mirrors random operations in a builtin map and checks
// full agreement, including Len and the table's invariants: once with the
// full hash, once with tinyHash so every operation collides, and once with
// tagHash so colliding keys also share tags under different hashes.
func TestAgainstMapModel(t *testing.T) {
	for name, hash := range map[string]func(string) uint64{"full": kv.HashString, "3-bit": tinyHash, "tag": tagHash} {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				tb := newTable(4)
				model := map[string]uint32{}
				for op := 0; op < 1000; op++ {
					k := fmt.Sprintf("k%d", rng.Intn(200))
					h := hash(k)
					switch rng.Intn(5) {
					case 0:
						id := forced(tb, k, h)
						if old := tb.Put(id); old != model[k] {
							return false
						}
						model[k] = id
					case 1:
						if tb.Get(h, k) != model[k] {
							return false
						}
					case 2:
						if tb.Delete(h, k) != model[k] {
							return false
						}
						delete(model, k)
					case 3: // Insert after a probe that found nothing
						if tb.Get(h, k) == 0 {
							model[k] = forced(tb, k, h)
							tb.Insert(model[k])
						}
					case 4: // Remove by id
						if id := model[k]; id != 0 {
							if !tb.Remove(id) {
								return false
							}
							delete(model, k)
						}
					}
					if tb.Len() != len(model) || tb.CheckInvariants() != nil {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckInvariantsCatches breaks each rule CheckInvariants states and
// expects a report.
func TestCheckInvariantsCatches(t *testing.T) {
	build := func() *Table {
		tb := newTable(4)
		for _, id := range []uint32{forced(tb, "a", 14), forced(tb, "b", 14), forced(tb, "c", 15)} {
			tb.Insert(id)
		}
		return tb
	}
	for name, breakIt := range map[string]func(tb *Table){
		"count":   func(tb *Table) { tb.n++ },
		"cut off": func(tb *Table) { tb.slots[15] = slot{}; tb.n-- },
		"tag":     func(tb *Table) { tb.slots[0].tag = 3 },
		"load": func(tb *Table) {
			*tb = Table{recs: tb.recs, slots: make([]slot, 4), mask: 3, n: 3}
			for i, id := range []uint32{forced(tb, "x", 0), forced(tb, "y", 1), forced(tb, "z", 2)} {
				tb.slots[i] = slot{uint32(i), id}
			}
		},
	} {
		tb := build()
		check(t, tb)
		breakIt(tb)
		if tb.CheckInvariants() == nil {
			t.Errorf("%s: CheckInvariants found nothing wrong", name)
		}
	}
}

// TestChurnAtConstantLenAllocs: 1 M Insert/Remove pairs at a constant Len of
// 10 k neither grow the table (no tombstones accumulate) nor allocate.
func TestChurnAtConstantLenAllocs(t *testing.T) {
	const live, pool, pairs = 10_000, 20_000, 1_000_000
	tb := newTable(4)
	ids := make([]uint32, pool)
	for i := range ids {
		ids[i] = item(tb, kv.KeyString(uint64(i)))
	}
	for _, id := range ids[:live] {
		tb.Insert(id)
	}
	slots := len(tb.slots)
	next := 0 // ids[next : next+live) (mod pool) are stored
	allocs := testing.AllocsPerRun(1, func() {
		for k := 0; k < pairs; k++ {
			if !tb.Remove(ids[next]) {
				t.Fatalf("pair %d: Remove found nothing", k)
			}
			tb.Insert(ids[(next+live)%pool])
			next = (next + 1) % pool
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d pairs, want 0", allocs, pairs)
	}
	if len(tb.slots) != slots || tb.Len() != live {
		t.Fatalf("after churn: %d slots (was %d), Len %d (want %d)", len(tb.slots), slots, tb.Len(), live)
	}
	check(t, tb)
}

// FuzzTable decodes byte pairs into Put/Insert/Get/Delete/Remove over at most
// 64 keys hashed by tagHash, so runs collide and wrap and keys of one tag
// differ above it, and compares every answer with a map model, checking the
// invariants after each operation. Records leaving the table go back to the
// store, so ids are reused.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 2, 4, 1, 2, 3})
	var fill []byte
	for k := byte(0); k < 64; k++ {
		fill = append(fill, 1, k)
	}
	for k := byte(0); k < 64; k += 3 {
		fill = append(fill, 4, k, 2, k+1)
	}
	f.Add(fill)
	// Pairs of keys of one tag and two hashes: store both, read both, drop
	// one by key and the other by id, then store the first again.
	byTag := map[uint32][]byte{}
	for k := byte(0); k < 64; k++ {
		tag := uint32(tagHash(fmt.Sprintf("k%d", k)))
		byTag[tag] = append(byTag[tag], k)
	}
	for tag := uint32(0); tag < 8; tag++ {
		ks := byTag[^tag]
		for i := 0; i+1 < len(ks); i++ {
			a, b := ks[i], ks[i+1]
			if tagHash(fmt.Sprintf("k%d", a)) != tagHash(fmt.Sprintf("k%d", b)) {
				f.Add([]byte{0, a, 1, b, 2, a, 2, b, 3, a, 2, b, 4, b, 2, a, 0, a, 2, a, 2, b})
				break
			}
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := newTable(4)
		model := map[string]uint32{}
		for p := 0; p+1 < len(ops); p += 2 {
			k := fmt.Sprintf("k%d", ops[p+1]%64)
			h := tagHash(k)
			switch ops[p] % 5 {
			case 0:
				id := forced(tb, k, h)
				if old := tb.Put(id); old != model[k] {
					t.Fatalf("op %d: Put(%q) replaced %d, model %d", p/2, k, old, model[k])
				} else if old != 0 {
					tb.recs.Free(old)
				}
				model[k] = id
			case 1:
				if model[k] == 0 {
					model[k] = forced(tb, k, h)
					tb.Insert(model[k])
				}
			case 2:
				if got := tb.Get(h, k); got != model[k] {
					t.Fatalf("op %d: Get(%q) = %d, model %d", p/2, k, got, model[k])
				}
			case 3:
				if got := tb.Delete(h, k); got != model[k] {
					t.Fatalf("op %d: Delete(%q) = %d, model %d", p/2, k, got, model[k])
				} else if got != 0 {
					tb.recs.Free(got)
				}
				delete(model, k)
			case 4:
				id := model[k]
				if id == 0 {
					id = forced(tb, k, h) // never stored: Remove must not find it
				}
				if got := tb.Remove(id); got != (model[k] != 0) {
					t.Fatalf("op %d: Remove(%q) = %v, model holds it: %v", p/2, k, got, model[k] != 0)
				}
				tb.recs.Free(id)
				delete(model, k)
			}
			if tb.Len() != len(model) || tb.recs.Len() != len(model) {
				t.Fatalf("op %d: Len %d, %d records, model %d", p/2, tb.Len(), tb.recs.Len(), len(model))
			}
			check(t, tb)
			// Peek of a key no other stored key shares its tag with is Get;
			// with colliders it is one of the stored items of that tag.
			// FindHash answers an item of the exact hash whenever one is
			// stored.
			others, exact := 0, 0
			for key, id := range model {
				if hk := tb.recs.At(id).Hash; uint32(hk) == uint32(h) && key != k {
					others++
				}
				if tb.recs.At(id).Hash == h {
					exact++
				}
			}
			got := tb.Peek(h)
			if others == 0 && got != tb.Get(h, k) {
				t.Fatalf("op %d: Peek(%#x) = %v, Get(%q) = %v", p/2, h, got, k, tb.Get(h, k))
			}
			if others > 0 && (got == 0 || uint32(tb.recs.At(got).Hash) != uint32(h) || model[keyOf(tb, got)] != got) {
				t.Fatalf("op %d: Peek(%#x) = %v, not one of the model's items of that tag", p/2, h, got)
			}
			if got := tb.FindHash(h); (got != 0) != (exact > 0) || got != 0 && (tb.recs.At(got).Hash != h || model[keyOf(tb, got)] != got) {
				t.Fatalf("op %d: FindHash(%#x) = %v with %d stored items of that hash", p/2, h, got, exact)
			}
		}
		seen := 0
		tb.Range(func(id uint32, it *kv.Item) bool {
			if model[it.Key()] != id {
				t.Fatalf("Range visited %q, not the model's item", it.Key())
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("Range visited %d items, model holds %d", seen, len(model))
		}
	})
}

func BenchmarkTableGet(b *testing.B) {
	tb := New(new(kv.Records), 1<<16)
	keys := make([]string, 1<<16)
	hashes := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = kv.KeyString(uint64(i))
		hashes[i] = kv.HashString(keys[i])
		tb.Put(item(tb, keys[i]))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i & (1<<16 - 1)
		if tb.Get(hashes[j], keys[j]) == 0 {
			b.Fatal("miss")
		}
	}
}

// scatteredSink keeps the filler allocations of the scattered benchmarks
// alive, so the keys stay spread over the heap.
var scatteredSink [][]byte

// benchScattered stores 100 k items, each key allocated between filler heap
// allocations of 200–1 000 B as a server's values are, then looks up either
// those keys (hit) or 100 k absent ones (miss) in a random permutation. The
// probe keys and hashes sit in arrays read in order, so only the table, the
// records it returns and their keys are touched at random.
func benchScattered(b *testing.B, hit bool) {
	const n = 100_000
	rng := rand.New(rand.NewSource(1))
	tb := newTable(4)
	scatteredSink = make([][]byte, n)
	for i := 0; i < n; i++ {
		scatteredSink[i] = make([]byte, 200+rng.Intn(801))
		tb.Insert(item(tb, kv.KeyString(uint64(i))))
	}
	base := 0
	if !hit {
		base = n
	}
	perm := rng.Perm(n)
	var sb strings.Builder
	for _, j := range perm {
		sb.WriteString(kv.KeyString(uint64(base + j)))
	}
	all := sb.String()
	keys := make([]string, n)
	hashes := make([]uint64, n)
	for p := range perm {
		keys[p] = all[8*p : 8*p+8]
		hashes[p] = kv.HashString(keys[p])
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := i % n
		if (tb.Get(hashes[p], keys[p]) != 0) != hit {
			b.Fatalf("lookup %d: hit = %v", p, !hit)
		}
	}
}

func BenchmarkTableGetScatteredHit(b *testing.B)  { benchScattered(b, true) }
func BenchmarkTableGetScatteredMiss(b *testing.B) { benchScattered(b, false) }
