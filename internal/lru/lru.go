// Package lru implements the intrusive doubly-linked list used for every LRU
// stack of items: the cache's resident subclass stacks and the MRC shadow
// stacks.
//
// The list links live inside the kv.Item records (Prev/Next, as record ids
// of one kv.Records store), so pushing, moving, and removing are
// allocation-free id operations. Following the paper's vocabulary, the MRU
// end is the *top* of the stack and the LRU end the *bottom*; eviction
// candidates sit at the bottom.
package lru

import "pamakv/internal/kv"

// List is an intrusive LRU stack of the records of one kv.Records store,
// named by id; 0 is no item. Build it with New.
type List struct {
	recs *kv.Records
	head uint32 // MRU (top)
	tail uint32 // LRU (bottom)
	n    int
}

// New returns an empty list of records of recs.
func New(recs *kv.Records) List { return List{recs: recs} }

// Records returns the store the list's ids name records of.
func (l *List) Records() *kv.Records { return l.recs }

// Len returns the number of items on the stack.
func (l *List) Len() int { return l.n }

// Front returns the MRU item, or 0 when empty.
func (l *List) Front() uint32 { return l.head }

// Back returns the LRU item (the next eviction victim), or 0 when empty.
func (l *List) Back() uint32 { return l.tail }

// PushFront places id at the MRU position. The item must not be on any list.
func (l *List) PushFront(id uint32) {
	it := l.recs.At(id)
	it.Prev = 0
	it.Next = l.head
	if l.head != 0 {
		l.recs.At(l.head).Prev = id
	} else {
		l.tail = id
	}
	l.head = id
	l.n++
}

// Remove unlinks id from the list. The item must be on this list.
func (l *List) Remove(id uint32) {
	it := l.recs.At(id)
	if it.Prev != 0 {
		l.recs.At(it.Prev).Next = it.Next
	} else {
		l.head = it.Next
	}
	if it.Next != 0 {
		l.recs.At(it.Next).Prev = it.Prev
	} else {
		l.tail = it.Prev
	}
	it.Prev, it.Next = 0, 0
	l.n--
}

// MoveToFront moves an on-list item to the MRU position.
func (l *List) MoveToFront(id uint32) {
	if l.head == id {
		return
	}
	l.Remove(id)
	l.PushFront(id)
}

// PopBack removes and returns the LRU item, or 0 when empty.
func (l *List) PopBack() uint32 {
	id := l.tail
	if id != 0 {
		l.Remove(id)
	}
	return id
}

// Repoint relinks an item of the list whose record, links included, was just
// copied to id (a value-storing engine's compaction): its neighbours' links,
// or the list's ends, take id.
func (l *List) Repoint(id uint32) {
	it := l.recs.At(id)
	if it.Prev != 0 {
		l.recs.At(it.Prev).Next = id
	} else {
		l.head = id
	}
	if it.Next != 0 {
		l.recs.At(it.Next).Prev = id
	} else {
		l.tail = id
	}
}

// AscendFromBack calls fn for each item from the LRU end toward the MRU end
// until fn returns false or the list is exhausted. fn must not mutate the
// list.
func (l *List) AscendFromBack(fn func(id uint32, it *kv.Item) bool) {
	for id := l.tail; id != 0; {
		it := l.recs.At(id)
		if !fn(id, it) {
			return
		}
		id = it.Prev
	}
}
