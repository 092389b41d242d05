package lru

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
)

// newList returns an empty list over a fresh store.
func newList() *List {
	l := New(new(kv.Records))
	return &l
}

// item makes a record keyed k in l's store and returns its id.
func item(l *List, k string) uint32 {
	id, _ := l.recs.New()
	l.recs.HoldKey(id, k)
	return id
}

func keys(l *List) []string {
	var out []string
	for id := l.Front(); id != 0; id = l.recs.At(id).Next {
		out = append(out, l.recs.At(id).Key())
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
	var prev uint32
	for id := l.Front(); id != 0; id = l.recs.At(id).Next {
		if l.recs.At(id).Prev != prev {
			t.Fatalf("broken Prev link at position %d", n)
		}
		prev = id
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
	l := newList()
	if l.Len() != 0 || l.Front() != 0 || l.Back() != 0 {
		t.Fatal("new List not empty")
	}
	if l.PopBack() != 0 {
		t.Fatal("pop on empty list should return 0")
	}
}

func TestPushFrontOrder(t *testing.T) {
	l := newList()
	for _, k := range []string{"a", "b", "c"} {
		l.PushFront(item(l, k))
	}
	if got := keys(l); !equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("order = %v", got)
	}
	checkInvariants(t, l)
}

func TestMoveToFront(t *testing.T) {
	l := newList()
	ids := make([]uint32, 3)
	for i, k := range []string{"c", "b", "a"} {
		ids[2-i] = item(l, k)
		l.PushFront(ids[2-i])
	}
	l.MoveToFront(ids[2]) // c a b
	l.MoveToFront(ids[2]) // no-op when already front
	if got := keys(l); !equal(got, []string{"c", "a", "b"}) {
		t.Fatalf("order = %v", got)
	}
	l.MoveToFront(ids[1]) // b c a
	if got := keys(l); !equal(got, []string{"b", "c", "a"}) {
		t.Fatalf("order = %v", got)
	}
	checkInvariants(t, l)
}

func TestRemoveMiddleEnds(t *testing.T) {
	l := newList()
	ids := make([]uint32, 5)
	for i := len(ids) - 1; i >= 0; i-- {
		ids[i] = item(l, string(rune('a'+i)))
		l.PushFront(ids[i])
	}
	l.Remove(ids[2])
	l.Remove(ids[0])
	l.Remove(ids[4])
	if got := keys(l); !equal(got, []string{"b", "d"}) {
		t.Fatalf("order = %v", got)
	}
	if it := l.recs.At(ids[2]); it.Prev != 0 || it.Next != 0 {
		t.Fatal("removed item retains links")
	}
	checkInvariants(t, l)
}

func TestPopBackDrains(t *testing.T) {
	l := newList()
	for i := 0; i < 4; i++ {
		l.PushFront(item(l, string(rune('a'+i))))
	}
	var got []string
	for id := l.PopBack(); id != 0; id = l.PopBack() {
		got = append(got, l.recs.At(id).Key())
	}
	if !equal(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("pop order = %v", got)
	}
	if l.Len() != 0 {
		t.Fatal("list not drained")
	}
}

func TestAscendFromBackStops(t *testing.T) {
	l := newList()
	for i := 0; i < 5; i++ {
		l.PushFront(item(l, string(rune('a'+i))))
	}
	var visited []string
	l.AscendFromBack(func(id uint32, it *kv.Item) bool {
		if l.recs.At(id) != it {
			t.Fatalf("AscendFromBack paired id %d with another record", id)
		}
		visited = append(visited, it.Key())
		return len(visited) < 2
	})
	if !equal(visited, []string{"a", "b"}) {
		t.Fatalf("visited = %v", visited)
	}
}

// TestAgainstModel drives the list with random operations mirrored in a plain
// slice model and checks the orders agree throughout. Removed records go back
// to the store, so their ids are reused as the lists of an engine reuse them.
func TestAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := newList()
		var model []uint32 // front..back
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(5); {
			case r <= 1 || len(model) == 0:
				id := item(l, kv.KeyString(uint64(op)))
				l.PushFront(id)
				model = append([]uint32{id}, model...)
			case r == 2:
				i := rng.Intn(len(model))
				l.MoveToFront(model[i])
				id := model[i]
				model = append(model[:i], model[i+1:]...)
				model = append([]uint32{id}, model...)
			case r == 3:
				i := rng.Intn(len(model))
				l.Remove(model[i])
				l.recs.Free(model[i])
				model = append(model[:i], model[i+1:]...)
			case r == 4:
				id := l.PopBack()
				if id == 0 {
					return len(model) == 0
				}
				if id != model[len(model)-1] {
					return false
				}
				l.recs.Free(id)
				model = model[:len(model)-1]
			}
			if l.Len() != len(model) || l.recs.Len() != len(model) {
				return false
			}
		}
		i := 0
		for id := l.Front(); id != 0; id = l.recs.At(id).Next {
			if i >= len(model) || model[i] != id {
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
