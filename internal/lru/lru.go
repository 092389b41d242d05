// Package lru implements the intrusive doubly-linked list used for every LRU
// stack of items: the cache's resident subclass stacks and the MRC shadow
// stacks.
//
// The list links live inside kv.Item (Prev/Next), so pushing, moving, and
// removing are allocation-free pointer operations. Following the paper's
// vocabulary, the MRU end is the *top* of the stack and the LRU end the
// *bottom*; eviction candidates sit at the bottom.
package lru

import "pamakv/internal/kv"

// List is an intrusive LRU stack of kv.Items. The zero value is an empty
// list ready to use.
type List struct {
	head *kv.Item // MRU (top)
	tail *kv.Item // LRU (bottom)
	n    int
}

// Len returns the number of items on the stack.
func (l *List) Len() int { return l.n }

// Front returns the MRU item, or nil when empty.
func (l *List) Front() *kv.Item { return l.head }

// Back returns the LRU item (the next eviction victim), or nil when empty.
func (l *List) Back() *kv.Item { return l.tail }

// PushFront places it at the MRU position. The item must not be on any list.
func (l *List) PushFront(it *kv.Item) {
	it.Prev = nil
	it.Next = l.head
	if l.head != nil {
		l.head.Prev = it
	} else {
		l.tail = it
	}
	l.head = it
	l.n++
}

// Remove unlinks it from the list. The item must be on this list.
func (l *List) Remove(it *kv.Item) {
	if it.Prev != nil {
		it.Prev.Next = it.Next
	} else {
		l.head = it.Next
	}
	if it.Next != nil {
		it.Next.Prev = it.Prev
	} else {
		l.tail = it.Prev
	}
	it.Prev, it.Next = nil, nil
	l.n--
}

// MoveToFront moves an on-list item to the MRU position.
func (l *List) MoveToFront(it *kv.Item) {
	if l.head == it {
		return
	}
	l.Remove(it)
	l.PushFront(it)
}

// PopBack removes and returns the LRU item, or nil when empty.
func (l *List) PopBack() *kv.Item {
	it := l.tail
	if it != nil {
		l.Remove(it)
	}
	return it
}

// AscendFromBack calls fn for each item from the LRU end toward the MRU end
// until fn returns false or the list is exhausted. fn must not mutate the
// list; use CollectFromBack when the visit will evict.
func (l *List) AscendFromBack(fn func(*kv.Item) bool) {
	for it := l.tail; it != nil; it = it.Prev {
		if !fn(it) {
			return
		}
	}
}

// CollectFromBack returns up to n items counted from the LRU end, bottom
// first. The returned slice is freshly allocated; callers may remove the
// items afterwards.
func (l *List) CollectFromBack(n int) []*kv.Item {
	if n <= 0 {
		return nil
	}
	if n > l.n {
		n = l.n
	}
	out := make([]*kv.Item, 0, n)
	for it := l.tail; it != nil && len(out) < n; it = it.Prev {
		out = append(out, it)
	}
	return out
}
