// Package hashtable implements the chained hash index that maps keys to
// cached items, in the style of Memcached's item hash table: power-of-two
// bucket array, intrusive chains through kv.Item.HNext, and doubling growth
// once chains average two items.
//
// The index stores *kv.Item directly, so a lookup that hits returns the live
// cache item with no further indirection, and delete/insert never allocate.
package hashtable

import "pamakv/internal/kv"

// Table is a chained hash index over kv.Items. The zero value is unusable;
// call New.
type Table struct {
	buckets []*kv.Item
	mask    uint64
	n       int
}

// New returns a table pre-sized for capHint items.
func New(capHint int) *Table {
	b := 16
	for b*2 < capHint {
		b <<= 1
	}
	return &Table{buckets: make([]*kv.Item, b), mask: uint64(b - 1)}
}

// Len returns the number of stored items.
func (t *Table) Len() int { return t.n }

// Buckets returns the current bucket count (diagnostics and tests).
func (t *Table) Buckets() int { return len(t.buckets) }

// Get returns the item with the given hash and key, or nil.
func (t *Table) Get(hash uint64, key string) *kv.Item {
	for it := t.buckets[hash&t.mask]; it != nil; it = it.HNext {
		if it.Hash == hash && it.Key == key {
			return it
		}
	}
	return nil
}

// Put inserts it, replacing and returning any existing item with the same
// key (nil if none). it.Hash must already be set.
func (t *Table) Put(it *kv.Item) *kv.Item {
	if old := t.remove(it.Hash, it.Key); old != nil {
		t.insert(it)
		return old
	}
	t.Insert(it)
	return nil
}

// Insert adds it, whose key the caller has just probed absent (Get returned
// nil): Put without the walk that looks for an item to replace.
func (t *Table) Insert(it *kv.Item) {
	if t.n >= 2*len(t.buckets) {
		t.grow()
	}
	t.insert(it)
}

// Delete removes and returns the item with the given key, or nil.
func (t *Table) Delete(hash uint64, key string) *kv.Item {
	return t.remove(hash, key)
}

// Remove unlinks it, an item the caller holds by pointer: Delete comparing
// pointers instead of hashes and keys. It reports whether it was stored.
func (t *Table) Remove(it *kv.Item) bool {
	for p := &t.buckets[it.Hash&t.mask]; *p != nil; p = &(*p).HNext {
		if *p == it {
			*p = it.HNext
			it.HNext = nil
			t.n--
			return true
		}
	}
	return false
}

// Range calls fn for every stored item until fn returns false. The table
// must not be mutated during the walk.
func (t *Table) Range(fn func(*kv.Item) bool) {
	for _, head := range t.buckets {
		for it := head; it != nil; it = it.HNext {
			if !fn(it) {
				return
			}
		}
	}
}

func (t *Table) insert(it *kv.Item) {
	b := it.Hash & t.mask
	it.HNext = t.buckets[b]
	t.buckets[b] = it
	t.n++
}

func (t *Table) remove(hash uint64, key string) *kv.Item {
	b := hash & t.mask
	var prev *kv.Item
	for it := t.buckets[b]; it != nil; it = it.HNext {
		if it.Hash == hash && it.Key == key {
			if prev == nil {
				t.buckets[b] = it.HNext
			} else {
				prev.HNext = it.HNext
			}
			it.HNext = nil
			t.n--
			return it
		}
		prev = it
	}
	return nil
}

func (t *Table) grow() {
	old := t.buckets
	t.buckets = make([]*kv.Item, len(old)*2)
	t.mask = uint64(len(t.buckets) - 1)
	t.n = 0
	for _, head := range old {
		for it := head; it != nil; {
			next := it.HNext
			t.insert(it)
			it = next
		}
	}
}
