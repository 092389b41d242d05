package lru

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
)

func keys(l *List) []string {
	var out []string
	for it := l.Front(); it != nil; it = it.Next {
		out = append(out, it.Key)
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkInvariants verifies link symmetry, head/tail consistency, and length.
func checkInvariants(t *testing.T, l *List) {
	t.Helper()
	n := 0
	var prev *kv.Item
	for it := l.Front(); it != nil; it = it.Next {
		if it.Prev != prev {
			t.Fatalf("broken Prev link at position %d", n)
		}
		prev = it
		n++
	}
	if prev != l.Back() {
		t.Fatal("tail does not match last node")
	}
	if n != l.Len() {
		t.Fatalf("Len()=%d but walked %d nodes", l.Len(), n)
	}
}

func TestEmptyList(t *testing.T) {
	var l List
	if l.Len() != 0 || l.Front() != nil || l.Back() != nil {
		t.Fatal("zero List not empty")
	}
	if l.PopBack() != nil {
		t.Fatal("pop on empty list should return nil")
	}
}

func TestPushFrontOrder(t *testing.T) {
	var l List
	for _, k := range []string{"a", "b", "c"} {
		l.PushFront(&kv.Item{Key: k})
	}
	if got := keys(&l); !equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("order = %v", got)
	}
	checkInvariants(t, &l)
}

func TestMoveToFront(t *testing.T) {
	var l List
	items := make([]*kv.Item, 3)
	for i, k := range []string{"c", "b", "a"} {
		items[2-i] = &kv.Item{Key: k}
		l.PushFront(items[2-i])
	}
	l.MoveToFront(items[2]) // c a b
	l.MoveToFront(items[2]) // no-op when already front
	if got := keys(&l); !equal(got, []string{"c", "a", "b"}) {
		t.Fatalf("order = %v", got)
	}
	l.MoveToFront(items[1]) // b c a
	if got := keys(&l); !equal(got, []string{"b", "c", "a"}) {
		t.Fatalf("order = %v", got)
	}
	checkInvariants(t, &l)
}

func TestRemoveMiddleEnds(t *testing.T) {
	var l List
	items := make([]*kv.Item, 5)
	for i := len(items) - 1; i >= 0; i-- {
		items[i] = &kv.Item{Key: string(rune('a' + i))}
		l.PushFront(items[i])
	}
	l.Remove(items[2])
	l.Remove(items[0])
	l.Remove(items[4])
	if got := keys(&l); !equal(got, []string{"b", "d"}) {
		t.Fatalf("order = %v", got)
	}
	if items[2].Prev != nil || items[2].Next != nil {
		t.Fatal("removed item retains links")
	}
	checkInvariants(t, &l)
}

func TestPopBackDrains(t *testing.T) {
	var l List
	for i := 0; i < 4; i++ {
		l.PushFront(&kv.Item{Key: string(rune('a' + i))})
	}
	var got []string
	for it := l.PopBack(); it != nil; it = l.PopBack() {
		got = append(got, it.Key)
	}
	if !equal(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("pop order = %v", got)
	}
	if l.Len() != 0 {
		t.Fatal("list not drained")
	}
}

func TestAscendFromBackStops(t *testing.T) {
	var l List
	for i := 0; i < 5; i++ {
		l.PushFront(&kv.Item{Key: string(rune('a' + i))})
	}
	var visited []string
	l.AscendFromBack(func(it *kv.Item) bool {
		visited = append(visited, it.Key)
		return len(visited) < 2
	})
	if !equal(visited, []string{"a", "b"}) {
		t.Fatalf("visited = %v", visited)
	}
}

func TestCollectFromBack(t *testing.T) {
	var l List
	for i := 0; i < 5; i++ {
		l.PushFront(&kv.Item{Key: string(rune('a' + i))})
	}
	got := l.CollectFromBack(3)
	if len(got) != 3 || got[0].Key != "a" || got[1].Key != "b" || got[2].Key != "c" {
		t.Fatalf("CollectFromBack = %v", got)
	}
	if len(l.CollectFromBack(99)) != 5 {
		t.Fatal("CollectFromBack should clamp to Len")
	}
	if l.CollectFromBack(0) != nil || l.CollectFromBack(-1) != nil {
		t.Fatal("CollectFromBack(<=0) should be nil")
	}
}

// TestAgainstModel drives the list with random operations mirrored in a plain
// slice model and checks the orders agree throughout.
func TestAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l List
		var model []*kv.Item // front..back
		find := func(it *kv.Item) int {
			for i, m := range model {
				if m == it {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(5); {
			case r <= 1 || len(model) == 0:
				it := &kv.Item{Key: kv.KeyString(uint64(op))}
				l.PushFront(it)
				model = append([]*kv.Item{it}, model...)
			case r == 2:
				i := rng.Intn(len(model))
				l.MoveToFront(model[i])
				it := model[i]
				model = append(model[:i], model[i+1:]...)
				model = append([]*kv.Item{it}, model...)
			case r == 3:
				i := rng.Intn(len(model))
				l.Remove(model[i])
				model = append(model[:i], model[i+1:]...)
			case r == 4:
				it := l.PopBack()
				if it == nil {
					return len(model) == 0
				}
				if find(it) != len(model)-1 {
					return false
				}
				model = model[:len(model)-1]
			}
			if l.Len() != len(model) {
				return false
			}
		}
		i := 0
		for it := l.Front(); it != nil; it = it.Next {
			if i >= len(model) || model[i] != it {
				return false
			}
			i++
		}
		return i == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
