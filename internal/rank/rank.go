// Package rank provides an order-statistics ring: given items that enter an
// LRU stack at the top and leave from arbitrary positions, it answers "how
// far is this item from the bottom of the stack?" in O(log n).
//
// Package mrc's shadow stacks use it to measure each re-access's exact
// stack distance. They are the whole budget deep, where a segment tracker's
// boundary ids (package segment) would cost O(depth) per access.
//
// Implementation: every insertion at the MRU end is assigned a monotonically
// increasing sequence number; stack order equals sequence order because a
// re-accessed item is removed and re-inserted with a fresh sequence. A
// Fenwick (binary indexed) tree over the sequence window counts live items,
// so rank-from-bottom is a prefix sum. When the sequence window fills up the
// caller compacts: Reset, then re-Insert bottom-to-top.
package rank

import "pamakv/internal/kv"

// Ring is the order-statistics structure for one LRU stack. The zero value
// is unusable; call New.
type Ring struct {
	bits []int32 // Fenwick tree, 1-based over [1..cap]
	cap  int     // capacity of the sequence window, power of two
	base uint32  // sequence number mapped to tree index 1
	next uint32  // next sequence number to assign
	live int
}

// New returns a Ring able to hold at least capHint live items before its
// first compaction.
func New(capHint int) *Ring {
	c := 64
	for c < capHint {
		c <<= 1
	}
	return &Ring{bits: make([]int32, c+1), cap: c}
}

// Len returns the number of live items tracked.
func (r *Ring) Len() int { return r.live }

// Full reports whether the next Insert would overflow the sequence window.
// The owner must compact (Reset + re-Insert in bottom-to-top order) first.
func (r *Ring) Full() bool { return int(r.next-r.base) >= r.cap }

// Reset clears the ring and, when the live population has outgrown half the
// window, doubles the window so compactions stay amortized O(1) per access.
func (r *Ring) Reset() {
	c := r.cap
	for r.live > c/4 {
		c <<= 1
	}
	if c != r.cap {
		r.bits = make([]int32, c+1)
		r.cap = c
	} else {
		for i := range r.bits {
			r.bits[i] = 0
		}
	}
	r.base, r.next, r.live = 0, 0, 0
}

// Insert assigns the next sequence number to it (recorded in it.Seq) and
// marks it live. Callers must check Full first; inserting into a full ring
// panics, as it would silently corrupt ranks.
func (r *Ring) Insert(it *kv.Item) {
	idx := int(r.next - r.base)
	if idx >= r.cap {
		panic("rank: Insert into full Ring; compact first")
	}
	it.Seq = r.next
	r.next++
	r.live++
	r.add(idx+1, 1)
}

// Remove marks it dead. The item must have been Inserted and not Removed
// since.
func (r *Ring) Remove(it *kv.Item) {
	idx := int(it.Seq - r.base)
	if idx >= r.cap {
		panic("rank: Remove of item outside window")
	}
	r.live--
	r.add(idx+1, -1)
}

// Rank returns the 0-based position of it counted from the bottom of the
// stack: 0 means it is the LRU item.
func (r *Ring) Rank(it *kv.Item) int {
	return r.sum(int(it.Seq - r.base)) // live items strictly older (deeper) than it
}

// add applies delta at 1-based tree position i.
func (r *Ring) add(i int, delta int32) {
	for ; i <= r.cap; i += i & (-i) {
		r.bits[i] += delta
	}
}

// sum returns the count of live items in tree positions [1..i].
func (r *Ring) sum(i int) int {
	s := int32(0)
	for ; i > 0; i -= i & (-i) {
		s += r.bits[i]
	}
	return int(s)
}
