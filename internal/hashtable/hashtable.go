// Package hashtable implements the open-addressed hash index that maps keys
// to cached items, and to the records of the mrc shadows and the value tables
// (package valuetable): one power-of-two array of 8-byte (tag, item id) slots
// probed linearly, doubled whenever an insert would push the load past 1/2
// and dropped back to its first size when its last item leaves.
// The tag is the hash's low 32 bits; ids name records of one kv.Records
// store, so the array holds no pointer, and it is mapped outside the Go heap
// (kv.Mapped): the collector neither scans it nor counts it towards its goal.
//
// A slot's home is its tag masked to the table, which is the hash masked to
// it, so placing, shifting and growing never read a record. A probe compares
// the tag stored in the slot before it reads the item's record, so a miss
// touches a record only for a key sharing its tag (one in 2^32 per slot) and
// a hit touches only the record it returns and its key: on a large heap each
// rejected record would otherwise cost a dependent cache miss. Deletion
// shifts the rest of the probe run back over the hole (backward-shift
// deletion), so there are no tombstones and churn at a constant Len never
// rehashes. Lookups, and the inserts and deletes that neither grow the table
// nor empty it, never allocate: growing maps the doubled array and unmaps the
// old one, and so does emptying, back to the first size. A table dropped with
// its owner is unmapped by its mapping's finalizer.
package hashtable

import (
	"fmt"
	"unsafe"

	"pamakv/internal/kv"
)

// slot is one entry of the table; id == 0 marks an empty slot.
type slot struct {
	tag uint32 // the item's hash, its low 32 bits
	id  uint32
}

// Table is an open-addressed index over the records of one kv.Records store.
// The zero value is unusable; call New.
type Table struct {
	recs  *kv.Records
	mem   *kv.Mapped[slot]
	slots []slot // mem's slots
	mask  uint64
	n     int
	start int // the slot count New chose, which an emptied table drops back to
}

// New returns a table over the records of recs, pre-sized for capHint items.
func New(recs *kv.Records, capHint int) *Table {
	s := 16
	for s < 2*capHint {
		s <<= 1
	}
	t := &Table{recs: recs, start: s}
	t.remap(s)
	return t
}

// remap maps n empty slots in place of the table's, returning the old ones,
// which stay mapped until the caller unmaps them.
func (t *Table) remap(n int) (old *kv.Mapped[slot]) {
	old, t.mem = t.mem, kv.Map[slot](n)
	t.slots, t.mask = t.mem.S(), uint64(n-1)
	return old
}

// Len returns the number of stored items.
func (t *Table) Len() int { return t.n }

// Get returns the id of the item with the given hash and key, or 0.
func (t *Table) Get(hash uint64, key string) uint32 {
	if i, ok := t.find(hash, key); ok {
		return t.slots[i].id
	}
	return 0
}

// Peek returns the first item of hash's probe run whose tag matches hash's,
// or 0, without comparing keys: it reads the slot array only. The item may
// hold another key whose hash shares the low 32 bits; a prefetch wants the
// memory a Get of hash is about to touch, not an answer.
func (t *Table) Peek(hash uint64) uint32 {
	tag := uint32(hash)
	for i := uint64(tag) & t.mask; ; i = (i + 1) & t.mask {
		if s := &t.slots[i]; s.id == 0 || s.tag == tag {
			return s.id
		}
	}
}

// FindHash returns an item whose record's Hash is exactly hash, or 0: Peek
// that reads the record of every tag match, for a caller that holds a hash
// without its key (the engine's audit of its ghosts).
func (t *Table) FindHash(hash uint64) uint32 {
	tag := uint32(hash)
	for i := uint64(tag) & t.mask; t.slots[i].id != 0; i = (i + 1) & t.mask {
		if s := &t.slots[i]; s.tag == tag && t.recs.At(s.id).Hash == hash {
			return s.id
		}
	}
	return 0
}

// Put inserts item id, replacing and returning any existing item with the
// same key (0 if none). Its record's Hash must already be set.
func (t *Table) Put(id uint32) uint32 {
	it := t.recs.At(id)
	if i, ok := t.find(it.Hash, it.Key()); ok {
		old := t.slots[i].id
		t.slots[i].id = id
		return old
	}
	t.Insert(id)
	return 0
}

// Insert adds item id, whose key the caller has just probed absent (Get
// returned 0): Put without the probe that looks for an item to replace.
func (t *Table) Insert(id uint32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.place(slot{uint32(t.recs.At(id).Hash), id})
	t.n++
}

// Delete removes and returns the item with the given key, or 0.
func (t *Table) Delete(hash uint64, key string) uint32 {
	i, ok := t.find(hash, key)
	if !ok {
		return 0
	}
	id := t.slots[i].id
	t.removeAt(i)
	return id
}

// Remove unlinks item id, which the caller holds by id: Delete comparing ids
// instead of keys. It reports whether the item was stored.
func (t *Table) Remove(id uint32) bool {
	for i := t.recs.At(id).Hash & t.mask; t.slots[i].id != 0; i = (i + 1) & t.mask {
		if t.slots[i].id == id {
			t.removeAt(i)
			return true
		}
	}
	return false
}

// Repoint tells the table that item old, of the given hash, now lives at id
// new: its record was copied there (a value-storing engine's compaction).
func (t *Table) Repoint(hash uint64, old, new uint32) {
	for i := hash & t.mask; t.slots[i].id != 0; i = (i + 1) & t.mask {
		if t.slots[i].id == old {
			t.slots[i].id = new
			return
		}
	}
}

// Bytes returns the memory the slot array maps.
func (t *Table) Bytes() int64 { return int64(len(t.slots)) * int64(unsafe.Sizeof(slot{})) }

// Range calls fn for every stored item until fn returns false. The table
// must not be mutated during the walk.
func (t *Table) Range(fn func(id uint32, it *kv.Item) bool) {
	for _, s := range t.slots {
		if s.id != 0 && !fn(s.id, t.recs.At(s.id)) {
			return
		}
	}
}

// CheckInvariants reports the first broken structural rule: the occupied
// slots number Len, each slot's tag is its record's hash's low 32 bits, every
// item is reachable from its home slot without crossing an empty slot, and
// the load is at most 1/2.
func (t *Table) CheckInvariants() error {
	n := 0
	for i, s := range t.slots {
		if s.id == 0 {
			continue
		}
		n++
		if it := t.recs.At(s.id); s.tag != uint32(it.Hash) {
			return fmt.Errorf("hashtable: slot %d holds tag %#x for %q, whose hash is %#x", i, s.tag, it.Key(), it.Hash)
		}
		home := uint64(s.tag) & t.mask
		for j := home; j != uint64(i); j = (j + 1) & t.mask {
			if t.slots[j].id == 0 {
				return fmt.Errorf("hashtable: %q in slot %d is cut off from its home slot %d by empty slot %d",
					t.recs.At(s.id).Key(), i, home, j)
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

// find returns the slot holding key, comparing stored tags first so only a
// record whose tag matches is read.
func (t *Table) find(hash uint64, key string) (uint64, bool) {
	tag := uint32(hash)
	for i := uint64(tag) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.id == 0 {
			return 0, false
		}
		if s.tag == tag && t.recs.At(s.id).Key() == key {
			return i, true
		}
	}
}

// place stores s in the first empty slot of its probe run.
func (t *Table) place(s slot) {
	i := uint64(s.tag) & t.mask
	for t.slots[i].id != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = s
}

// removeAt empties slot i and closes the hole: each later member of the run
// whose home slot is not after the hole moves back into it, leaving a new
// hole where it was, until the run ends.
func (t *Table) removeAt(i uint64) {
	for j := (i + 1) & t.mask; t.slots[j].id != 0; j = (j + 1) & t.mask {
		// The member at j may fill hole i when it is at least as far from its
		// home as from the hole, i.e. its home is not in (i, j].
		if (j-uint64(t.slots[j].tag))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	if t.n--; t.n == 0 && len(t.slots) > t.start {
		// Emptied (a flush): give back what growing took.
		t.remap(t.start).Unmap()
	}
}

func (t *Table) grow() {
	old := t.remap(2 * len(t.slots))
	for _, s := range old.S() {
		if s.id != 0 {
			t.place(s)
		}
	}
	old.Unmap()
}
