// Package hashtable implements the open-addressed hash index that maps keys
// to cached items: one power-of-two array of (hash, item) slots probed
// linearly, doubled whenever an insert would push the load past 1/2.
//
// A probe compares the hash stored in the slot before it dereferences the
// item, so a miss touches no item and a hit touches only the item it returns:
// on a large heap each rejected item would otherwise cost a dependent cache
// miss. Deletion shifts the rest of the probe run back over the hole
// (backward-shift deletion), so there are no tombstones and churn at a
// constant Len never rehashes. Lookups, deletes and inserts that do not grow
// the table never allocate.
package hashtable

import (
	"fmt"

	"pamakv/internal/kv"
)

// slot is one entry of the table; it == nil marks an empty slot.
type slot struct {
	hash uint64
	it   *kv.Item
}

// Table is an open-addressed index over kv.Items. The zero value is
// unusable; call New.
type Table struct {
	slots []slot
	mask  uint64
	n     int
}

// New returns a table pre-sized for capHint items.
func New(capHint int) *Table {
	s := 16
	for s < 2*capHint {
		s <<= 1
	}
	return &Table{slots: make([]slot, s), mask: uint64(s - 1)}
}

// Len returns the number of stored items.
func (t *Table) Len() int { return t.n }

// Get returns the item with the given hash and key, or nil.
func (t *Table) Get(hash uint64, key string) *kv.Item {
	if i, ok := t.find(hash, key); ok {
		return t.slots[i].it
	}
	return nil
}

// Peek returns the first item of hash's probe run whose stored hash equals
// hash, or nil, without comparing keys: it reads the slot array only. The
// item may hold another key of the same hash; a prefetch wants the memory a
// Get of hash is about to touch, not an answer.
func (t *Table) Peek(hash uint64) *kv.Item {
	for i := hash & t.mask; ; i = (i + 1) & t.mask {
		if s := &t.slots[i]; s.it == nil || s.hash == hash {
			return s.it
		}
	}
}

// Put inserts it, replacing and returning any existing item with the same
// key (nil if none). it.Hash must already be set.
func (t *Table) Put(it *kv.Item) *kv.Item {
	if i, ok := t.find(it.Hash, it.Key); ok {
		old := t.slots[i].it
		t.slots[i].it = it
		return old
	}
	t.Insert(it)
	return nil
}

// Insert adds it, whose key the caller has just probed absent (Get returned
// nil): Put without the probe that looks for an item to replace.
func (t *Table) Insert(it *kv.Item) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.place(slot{it.Hash, it})
	t.n++
}

// Delete removes and returns the item with the given key, or nil.
func (t *Table) Delete(hash uint64, key string) *kv.Item {
	i, ok := t.find(hash, key)
	if !ok {
		return nil
	}
	it := t.slots[i].it
	t.removeAt(i)
	return it
}

// Remove unlinks it, an item the caller holds by pointer: Delete comparing
// pointers instead of hashes and keys. It reports whether it was stored.
func (t *Table) Remove(it *kv.Item) bool {
	for i := it.Hash & t.mask; t.slots[i].it != nil; i = (i + 1) & t.mask {
		if t.slots[i].it == it {
			t.removeAt(i)
			return true
		}
	}
	return false
}

// Range calls fn for every stored item until fn returns false. The table
// must not be mutated during the walk.
func (t *Table) Range(fn func(*kv.Item) bool) {
	for _, s := range t.slots {
		if s.it != nil && !fn(s.it) {
			return
		}
	}
}

// CheckInvariants reports the first broken structural rule: the occupied
// slots number Len, every item is reachable from its home slot without
// crossing an empty slot, and the load is at most 1/2.
func (t *Table) CheckInvariants() error {
	n := 0
	for i, s := range t.slots {
		if s.it == nil {
			continue
		}
		n++
		if s.hash != s.it.Hash {
			return fmt.Errorf("hashtable: slot %d holds hash %#x for %q, whose hash is %#x", i, s.hash, s.it.Key, s.it.Hash)
		}
		for j := s.hash & t.mask; j != uint64(i); j = (j + 1) & t.mask {
			if t.slots[j].it == nil {
				return fmt.Errorf("hashtable: %q in slot %d is cut off from its home slot %d by empty slot %d",
					s.it.Key, i, s.hash&t.mask, j)
			}
		}
	}
	if n != t.n {
		return fmt.Errorf("hashtable: %d occupied slots, Len %d", n, t.n)
	}
	if 2*n > len(t.slots) {
		return fmt.Errorf("hashtable: %d items in %d slots, load above 1/2", n, len(t.slots))
	}
	return nil
}

// find returns the slot holding key, comparing stored hashes first so only
// an item whose hash matches is dereferenced.
func (t *Table) find(hash uint64, key string) (uint64, bool) {
	for i := hash & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.it == nil {
			return 0, false
		}
		if s.hash == hash && s.it.Key == key {
			return i, true
		}
	}
}

// place stores s in the first empty slot of its probe run.
func (t *Table) place(s slot) {
	i := s.hash & t.mask
	for t.slots[i].it != nil {
		i = (i + 1) & t.mask
	}
	t.slots[i] = s
}

// removeAt empties slot i and closes the hole: each later member of the run
// whose home slot is not after the hole moves back into it, leaving a new
// hole where it was, until the run ends.
func (t *Table) removeAt(i uint64) {
	for j := (i + 1) & t.mask; t.slots[j].it != nil; j = (j + 1) & t.mask {
		// The member at j may fill hole i when it is at least as far from its
		// home as from the hole, i.e. its home is not in (i, j].
		if (j-t.slots[j].hash)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

func (t *Table) grow() {
	old := t.slots
	t.slots = make([]slot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.it != nil {
			t.place(s)
		}
	}
}
