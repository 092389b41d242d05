package segment

import (
	"math/rand"
	"slices"
	"testing"

	"pamakv/internal/kv"
	"pamakv/internal/lru"
)

// stack bundles a list with a tracker and applies the engine's calling
// conventions.
type stack struct {
	list lru.List
	tr   Tracker
}

func newStack(mk func(*lru.List, int, int) Tracker, segSize, nseg int) *stack {
	s := &stack{list: lru.New(new(kv.Records))}
	s.tr = mk(&s.list, segSize, nseg)
	return s
}

func exactMk(l *lru.List, s, n int) Tracker { return NewExact(l, s, n) }
func bloomMk(l *lru.List, s, n int) Tracker { return NewBloom(l, s, n) }

func (s *stack) insert(id uint32) {
	s.list.PushFront(id)
	s.tr.Insert(id)
}

func (s *stack) evictBottom() uint32 {
	id := s.list.Back()
	if id == 0 {
		return 0
	}
	s.tr.Remove(id)
	s.list.Remove(id)
	return id
}

// item makes a record of l's store keyed by n and returns its id.
func item(l *lru.List, n uint64) uint32 {
	k := kv.KeyString(n)
	id, it := l.Records().New()
	l.Records().HoldKey(id, k)
	it.Hash = kv.HashString(k)
	return id
}

// item is the package item over the stack's list.
func (s *stack) item(n uint64) uint32 { return item(&s.list, n) }

func TestExactSegmentsOnFreshStack(t *testing.T) {
	s := newStack(exactMk, 4, 2) // bottom 8 items tracked in 2 segments of 4
	items := make([]uint32, 12)
	for i := range items {
		items[i] = s.item(uint64(i))
		s.insert(items[i])
	}
	// items[0] is the bottom. Positions 0..3 -> seg 0, 4..7 -> seg 1, rest -1.
	wants := []int{0, 0, 0, 0, 1, 1, 1, 1, -1, -1, -1, -1}
	for i := 11; i >= 0; i-- { // touch from top down so earlier touches don't disturb deeper ranks
		if got := s.tr.Touch(items[i]); got != wants[i] {
			t.Fatalf("Touch(items[%d]) = %d, want %d", i, got, wants[i])
		}
	}
}

func TestExactTouchMovesToFront(t *testing.T) {
	s := newStack(exactMk, 2, 2)
	a, b, c := s.item(1), s.item(2), s.item(3)
	s.insert(a)
	s.insert(b)
	s.insert(c)
	if got := s.tr.Touch(a); got != 0 {
		t.Fatalf("Touch(a) = %d, want segment 0", got)
	}
	if s.list.Front() != a {
		t.Fatal("Touch did not move item to MRU")
	}
	// a is now at the top; b is the new bottom.
	if got := s.tr.Touch(b); got != 0 {
		t.Fatalf("Touch(b) = %d, want 0", got)
	}
}

func TestExactRemoveShifts(t *testing.T) {
	s := newStack(exactMk, 1, 3)
	items := make([]uint32, 5)
	for i := range items {
		items[i] = s.item(uint64(i))
		s.insert(items[i])
	}
	if got := s.evictBottom(); got != items[0] {
		t.Fatal("evicted wrong item")
	}
	// items[1] is now bottom -> segment 0.
	if got := s.tr.Touch(items[1]); got != 0 {
		t.Fatalf("Touch after eviction = %d, want 0", got)
	}
}

// TestExactCompactionKeepsOrder: after thousands of touches over a stack
// several segments deep, every tag and boundary still matches a walk of the
// list.
func TestExactCompactionKeepsOrder(t *testing.T) {
	s := newStack(exactMk, 8, 2)
	var items []uint32
	for i := 0; i < 200; i++ {
		id := s.item(uint64(i))
		items = append(items, id)
		s.insert(id)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		s.tr.Touch(items[rng.Intn(len(items))])
	}
	if err := s.tr.(*Exact).Check(); err != nil {
		t.Fatal(err)
	}
	for pos, id := range walk(&s.list) {
		if got, want := segOf(s.tr.(*Exact), id), naiveSeg(pos, 8, 2); got != want {
			t.Fatalf("item at %d from the bottom in segment %d, want %d", pos, got, want)
		}
	}
}

// walk returns the list bottom first.
func walk(l *lru.List) []uint32 {
	var out []uint32
	l.AscendFromBack(func(id uint32, _ *kv.Item) bool {
		out = append(out, id)
		return true
	})
	return out
}

// naiveSeg is the segment of the item pos places from the bottom, -1 above
// the region.
func naiveSeg(pos, segSize, nseg int) int {
	if k := pos / segSize; k < nseg {
		return k
	}
	return -1
}

// segOf reads an item's tag as Touch would report it.
func segOf(e *Exact, id uint32) int {
	if k := int(e.recs.At(id).Seq); k < e.nseg {
		return k
	}
	return -1
}

// FuzzExact decodes bytes into Insert, Touch and Remove over
// one list and compares every item's segment with a walk of the list after
// every operation. The first two bytes pick the shape, segSize 1 and nseg 1
// included. A removed record goes back to the store, so ids are reused.
func FuzzExact(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{3, 2, 0, 1, 0, 1, 1, 2, 1, 3, 2, 5, 3, 0, 3, 7, 2, 2, 0, 9})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 3, 0, 3, 0, 2, 1, 0, 4, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		segSize, nseg := 1+int(ops[0]%4), 1+int(ops[1]%4)
		l := lru.New(new(kv.Records))
		e := NewExact(&l, segSize, nseg)
		var on []uint32 // items on the list, in no particular order
		next := uint64(0)
		for ops = ops[2:]; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0]%3, int(ops[1])
			if len(on) == 0 {
				op = 0 // nothing to touch or remove: insert instead
			}
			switch op {
			case 0:
				id := item(&l, next)
				next++
				l.PushFront(id)
				e.Insert(id)
				on = append(on, id)
			case 1:
				id := on[arg%len(on)]
				want := naiveSeg(slices.Index(walk(&l), id), segSize, nseg)
				if got := e.Touch(id); got != want {
					t.Fatalf("Touch reported segment %d, a walk says %d", got, want)
				}
				if l.Front() != id {
					t.Fatal("Touch did not move the item to the front")
				}
			case 2:
				i := arg % len(on)
				e.Remove(on[i])
				l.Remove(on[i])
				l.Records().Free(on[i])
				on = append(on[:i], on[i+1:]...)
			}
			for pos, id := range walk(&l) {
				if got, want := segOf(e, id), naiveSeg(pos, segSize, nseg); got != want {
					t.Fatalf("item at %d from the bottom in segment %d, a walk says %d", pos, got, want)
				}
			}
			if err := e.Check(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestBloomFreshSnapshotEmpty(t *testing.T) {
	s := newStack(bloomMk, 4, 2)
	it := s.item(1)
	s.insert(it)
	// No rollover yet: nothing is attributed.
	if got := s.tr.Touch(it); got != -1 {
		t.Fatalf("Touch before first Rollover = %d, want -1", got)
	}
	if s.list.Front() != it {
		t.Fatal("Bloom Touch must still move item to front")
	}
}

func TestBloomAfterRollover(t *testing.T) {
	s := newStack(bloomMk, 4, 2)
	items := make([]uint32, 12)
	for i := range items {
		items[i] = s.item(uint64(i))
		s.insert(items[i])
	}
	s.tr.Rollover()
	// Bottom 4 -> seg 0, next 4 -> seg 1, top 4 -> -1.
	for i := 11; i >= 0; i-- {
		want := -1
		switch {
		case i < 4:
			want = 0
		case i < 8:
			want = 1
		}
		if got := s.tr.Touch(items[i]); got != want {
			t.Fatalf("Touch(items[%d]) = %d, want %d", i, got, want)
		}
	}
}

func TestBloomRemovalSuppressesReaccess(t *testing.T) {
	s := newStack(bloomMk, 4, 1)
	items := make([]uint32, 4)
	for i := range items {
		items[i] = s.item(uint64(i))
		s.insert(items[i])
	}
	s.tr.Rollover()
	if got := s.tr.Touch(items[0]); got != 0 {
		t.Fatalf("first Touch = %d, want 0", got)
	}
	// The item moved to the top; a second access in the same window must
	// not be attributed to the segment again.
	if got := s.tr.Touch(items[0]); got != -1 {
		t.Fatalf("second Touch = %d, want -1", got)
	}
}

func TestBloomEvictionMarksRemoval(t *testing.T) {
	s := newStack(bloomMk, 2, 1)
	a, b := s.item(1), s.item(2)
	s.insert(a)
	s.insert(b)
	s.tr.Rollover()
	ev := s.evictBottom() // a
	if ev != a {
		t.Fatal("wrong eviction")
	}
	// Re-inserting a fresh item with the same key: stale filter entry must
	// not attribute it (removal filter suppresses).
	s.list.Records().Free(ev)
	a2 := s.item(1)
	s.insert(a2)
	if got := s.tr.Touch(a2); got != -1 {
		t.Fatalf("stale attribution after eviction: %d", got)
	}
}

// TestBloomAgreesWithExactMostly runs both trackers over one access
// sequence and requires high agreement right after rollovers (Bloom's only
// approximation errors are false positives and intra-window drift).
func TestBloomAgreesWithExactMostly(t *testing.T) {
	const segSize, nseg, n = 16, 3, 400
	se := newStack(exactMk, segSize, nseg)
	sb := newStack(bloomMk, segSize, nseg)
	var ei, bi []uint32
	for i := 0; i < n; i++ {
		e, b := se.item(uint64(i)), sb.item(uint64(i))
		se.insert(e)
		sb.insert(b)
		ei = append(ei, e)
		bi = append(bi, b)
	}
	rng := rand.New(rand.NewSource(9))
	agree, total := 0, 0
	for round := 0; round < 50; round++ {
		se.tr.Rollover()
		sb.tr.Rollover()
		for j := 0; j < 20; j++ {
			idx := rng.Intn(n)
			ge := se.tr.Touch(ei[idx])
			gb := sb.tr.Touch(bi[idx])
			total++
			if ge == gb {
				agree++
			}
		}
	}
	if ratio := float64(agree) / float64(total); ratio < 0.80 {
		t.Fatalf("bloom/exact agreement %.2f below 0.80", ratio)
	}
}

func TestSegmentsAccessor(t *testing.T) {
	if newStack(exactMk, 4, 3).tr.Segments() != 3 {
		t.Fatal("Exact.Segments")
	}
	if newStack(bloomMk, 4, 5).tr.Segments() != 5 {
		t.Fatal("Bloom.Segments")
	}
}
