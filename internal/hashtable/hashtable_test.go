package hashtable

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
)

func item(key string) *kv.Item {
	return &kv.Item{Key: key, Hash: kv.HashString(key)}
}

func TestGetMissing(t *testing.T) {
	tb := New(4)
	if tb.Get(kv.HashString("nope"), "nope") != nil {
		t.Fatal("Get on empty table should return nil")
	}
}

func TestPutGetDelete(t *testing.T) {
	tb := New(4)
	a := item("a")
	if tb.Put(a) != nil {
		t.Fatal("first Put should not replace")
	}
	if got := tb.Get(a.Hash, "a"); got != a {
		t.Fatal("Get did not return stored item")
	}
	if got := tb.Delete(a.Hash, "a"); got != a {
		t.Fatal("Delete did not return stored item")
	}
	if tb.Get(a.Hash, "a") != nil || tb.Len() != 0 {
		t.Fatal("item still present after Delete")
	}
	if tb.Delete(a.Hash, "a") != nil {
		t.Fatal("second Delete should return nil")
	}
}

func TestPutReplaces(t *testing.T) {
	tb := New(4)
	a1, a2 := item("a"), item("a")
	tb.Put(a1)
	if got := tb.Put(a2); got != a1 {
		t.Fatal("Put should return replaced item")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	if got := tb.Get(a2.Hash, "a"); got != a2 {
		t.Fatal("Get should return the replacement")
	}
}

func TestGrowthPreservesItems(t *testing.T) {
	tb := New(4)
	const n = 5000
	for i := 0; i < n; i++ {
		tb.Put(item(fmt.Sprintf("key-%d", i)))
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	if tb.Buckets() < n/2 {
		t.Fatalf("table did not grow: %d buckets for %d items", tb.Buckets(), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if got := tb.Get(kv.HashString(k), k); got == nil || got.Key != k {
			t.Fatalf("lost key %q after growth", k)
		}
	}
}

func TestCollidingHashesDistinctKeys(t *testing.T) {
	// Force two different keys into the same chain with identical Hash
	// values: the table must distinguish them by key comparison.
	tb := New(4)
	a := &kv.Item{Key: "a", Hash: 12345}
	b := &kv.Item{Key: "b", Hash: 12345}
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
}

// TestInsertGrows: Insert of keys probed absent is Put without the replace
// walk — the table still grows while it inserts and loses nothing.
func TestInsertGrows(t *testing.T) {
	tb := New(4)
	start := tb.Buckets()
	const n = 3000
	items := make([]*kv.Item, n)
	for i := range items {
		items[i] = item(fmt.Sprintf("key-%d", i))
		if tb.Get(items[i].Hash, items[i].Key) != nil {
			t.Fatalf("key %d present before its insert", i)
		}
		tb.Insert(items[i])
		if tb.Len() != i+1 {
			t.Fatalf("Len = %d after %d inserts", tb.Len(), i+1)
		}
	}
	if tb.Buckets() < n/2 || tb.Buckets() == start {
		t.Fatalf("table did not grow: %d buckets for %d items", tb.Buckets(), n)
	}
	for _, it := range items {
		if tb.Get(it.Hash, it.Key) != it {
			t.Fatalf("lost %q across growth", it.Key)
		}
	}
}

// TestRemoveByPointer removes the head, the middle and the tail of one chain
// by pointer, then an item that is not stored.
func TestRemoveByPointer(t *testing.T) {
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {0, 2, 1}, {0, 1, 2}} {
		tb := New(4)
		// Three distinct keys with one hash share a chain: c is its head
		// (inserted last), a its tail.
		chain := []*kv.Item{{Key: "a", Hash: 7}, {Key: "b", Hash: 7}, {Key: "c", Hash: 7}}
		other := item("other")
		tb.Insert(other)
		for _, it := range chain {
			tb.Insert(it)
		}
		left := map[*kv.Item]bool{chain[0]: true, chain[1]: true, chain[2]: true}
		for _, i := range order {
			if !tb.Remove(chain[i]) {
				t.Fatalf("order %v: Remove(%q) found nothing", order, chain[i].Key)
			}
			delete(left, chain[i])
			if chain[i].HNext != nil {
				t.Fatalf("order %v: removed %q still links into the chain", order, chain[i].Key)
			}
			if tb.Remove(chain[i]) {
				t.Fatalf("order %v: second Remove(%q) succeeded", order, chain[i].Key)
			}
			for _, it := range chain {
				if got := tb.Get(7, it.Key); (got == it) != left[it] {
					t.Fatalf("order %v after removing %q: Get(%q) = %v, stored %v", order, chain[i].Key, it.Key, got != nil, left[it])
				}
			}
			if tb.Len() != len(left)+1 || tb.Get(other.Hash, "other") != other {
				t.Fatalf("order %v: Len = %d with %d of the chain left", order, tb.Len(), len(left))
			}
		}
	}
	// An equal key is not the same item.
	tb := New(4)
	a1, a2 := item("a"), item("a")
	tb.Insert(a1)
	if tb.Remove(a2) || tb.Get(a1.Hash, "a") != a1 || tb.Len() != 1 {
		t.Fatal("Remove matched an item by key, not by pointer")
	}
}

func TestRangeVisitsAll(t *testing.T) {
	tb := New(4)
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		want[k] = true
		tb.Put(item(k))
	}
	got := map[string]bool{}
	tb.Range(func(it *kv.Item) bool {
		got[it.Key] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d items, want %d", len(got), len(want))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := New(4)
	for i := 0; i < 10; i++ {
		tb.Put(item(fmt.Sprintf("k%d", i)))
	}
	count := 0
	tb.Range(func(*kv.Item) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Range visited %d after stop, want 3", count)
	}
}

// TestAgainstMapModel mirrors random operations in a builtin map and checks
// full agreement, including Len.
func TestAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(4)
		model := map[string]*kv.Item{}
		keyOf := func() string { return fmt.Sprintf("k%d", rng.Intn(200)) }
		for op := 0; op < 1000; op++ {
			k := keyOf()
			h := kv.HashString(k)
			switch rng.Intn(5) {
			case 0:
				it := item(k)
				old := tb.Put(it)
				if (old != nil) != (model[k] != nil) || (old != nil && old != model[k]) {
					return false
				}
				model[k] = it
			case 3: // Insert after a probe that found nothing
				if tb.Get(h, k) == nil {
					model[k] = item(k)
					tb.Insert(model[k])
				}
			case 4: // Remove by pointer
				if it := model[k]; it != nil {
					if !tb.Remove(it) {
						return false
					}
					delete(model, k)
				}
			case 1:
				if tb.Get(h, k) != model[k] {
					return false
				}
			case 2:
				old := tb.Delete(h, k)
				if old != model[k] {
					return false
				}
				delete(model, k)
			}
			if tb.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableGet(b *testing.B) {
	tb := New(1 << 16)
	keys := make([]string, 1<<16)
	hashes := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = kv.KeyString(uint64(i))
		hashes[i] = kv.HashString(keys[i])
		tb.Put(&kv.Item{Key: keys[i], Hash: hashes[i]})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i & (1<<16 - 1)
		if tb.Get(hashes[j], keys[j]) == nil {
			b.Fatal("miss")
		}
	}
}
