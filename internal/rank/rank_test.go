package rank

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
	"pamakv/internal/lru"
)

func TestInsertRank(t *testing.T) {
	r := New(8)
	items := make([]*kv.Item, 5)
	for i := range items {
		items[i] = &kv.Item{}
		r.Insert(items[i])
	}
	// Later insertions sit nearer the top: items[0] is at the bottom.
	for i, it := range items {
		if got := r.Rank(it); got != i {
			t.Fatalf("Rank(items[%d]) = %d, want %d", i, got, i)
		}
	}
}

func TestRemoveShiftsRanks(t *testing.T) {
	r := New(8)
	items := make([]*kv.Item, 5)
	for i := range items {
		items[i] = &kv.Item{}
		r.Insert(items[i])
	}
	r.Remove(items[1])
	want := map[int]int{0: 0, 2: 1, 3: 2, 4: 3}
	for i, w := range want {
		if got := r.Rank(items[i]); got != w {
			t.Fatalf("after remove, Rank(items[%d]) = %d, want %d", i, got, w)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

func TestReaccessMovesToTop(t *testing.T) {
	r := New(8)
	a, b, c := &kv.Item{}, &kv.Item{}, &kv.Item{}
	r.Insert(a)
	r.Insert(b)
	r.Insert(c)
	// Simulate access of a: remove + reinsert.
	r.Remove(a)
	r.Insert(a)
	if r.Rank(b) != 0 || r.Rank(c) != 1 || r.Rank(a) != 2 {
		t.Fatalf("ranks after reaccess: b=%d c=%d a=%d", r.Rank(b), r.Rank(c), r.Rank(a))
	}
}

func TestFullAndPanic(t *testing.T) {
	r := New(1) // rounds to 64
	for i := 0; i < 64; i++ {
		r.Insert(&kv.Item{})
	}
	if !r.Full() {
		t.Fatal("ring should be full after cap insertions")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert into full ring should panic")
		}
	}()
	r.Insert(&kv.Item{})
}

func TestResetGrows(t *testing.T) {
	r := New(1)
	var live []*kv.Item
	for i := 0; i < 60; i++ {
		it := &kv.Item{}
		r.Insert(it)
		live = append(live, it)
	}
	r.Reset()
	if r.cap <= 64 {
		t.Fatalf("Reset should have grown capacity beyond 64 for %d live items, got %d", len(live), r.cap)
	}
	if r.Len() != 0 {
		t.Fatal("Reset should clear live count")
	}
	for i, it := range live {
		r.Insert(it)
		if got := r.Rank(it); got != i {
			t.Fatalf("post-reset Rank = %d, want %d", got, i)
		}
	}
}

// TestAgainstListModel co-drives a Ring with an lru.List, compacting when
// full, and checks Rank matches the true list position from the bottom.
func TestAgainstListModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(4)
		recs := new(kv.Records)
		l := lru.New(recs)
		compact := func() {
			r.Reset()
			l.AscendFromBack(func(_ uint32, it *kv.Item) bool {
				r.Insert(it)
				return true
			})
		}
		for op := 0; op < 500; op++ {
			switch c := rng.Intn(4); {
			case c <= 1 || l.Len() == 0: // insert
				if r.Full() {
					compact()
				}
				id, it := recs.New()
				l.PushFront(id)
				r.Insert(it)
			case c == 2: // access a random item
				pick := rng.Intn(l.Len())
				var id uint32
				i := 0
				l.AscendFromBack(func(x uint32, _ *kv.Item) bool {
					if i == pick {
						id = x
						return false
					}
					i++
					return true
				})
				it := recs.At(id)
				r.Remove(it)
				l.MoveToFront(id)
				if r.Full() {
					compact() // re-inserts it along with everything else
				} else {
					r.Insert(it)
				}
			case c == 3: // evict bottom
				id := l.PopBack()
				r.Remove(recs.At(id))
				recs.Free(id)
			}
			// Verify every position.
			pos := 0
			ok := true
			l.AscendFromBack(func(_ uint32, it *kv.Item) bool {
				if r.Rank(it) != pos {
					ok = false
					return false
				}
				pos++
				return true
			})
			if !ok || r.Len() != l.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRingAccess(b *testing.B) {
	const n = 8192
	r := New(n)
	recs := new(kv.Records)
	l := lru.New(recs)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i], _ = recs.New()
		l.PushFront(ids[i])
		r.Insert(recs.At(ids[i]))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[rng.Intn(n)]
		it := recs.At(id)
		_ = r.Rank(it)
		r.Remove(it)
		l.MoveToFront(id)
		if r.Full() {
			r.Reset()
			l.AscendFromBack(func(_ uint32, x *kv.Item) bool { r.Insert(x); return true })
		} else {
			r.Insert(it)
		}
	}
}
