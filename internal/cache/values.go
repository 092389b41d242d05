package cache

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"unsafe"

	"pamakv/internal/kv"
)

// Value memory. When StoreValues is on, values live in real slabs: each slab a
// class owns is one page of Geometry.SlabSize bytes mapped outside the Go heap
// (pages_unix.go; a heap []byte where the platform has no mmap), faulted in as
// it is written and carved into slots of the class's size when the class is
// granted it. A resident item owns one slot: its key at the head, its value
// right after; the item's record holds the slot's address (kv.Item.Slot) and
// the two lengths, and Key and Value alias those bytes. The collector neither
// scans nor frees them, so its headroom no longer doubles the cache, an
// inserting store allocates nothing, and the value memory of an engine is
// exactly the pages slab.Manager says its classes own.
//
// Pages follow the slab accounting:
//
//   - A class granted a slab (growth) maps a page and stacks its slots on
//     class.vfree, so len(vfree) is always slabs.FreeSlots(class): a store
//     pops a slot, a release pushes one, both O(1).
//   - A slab leaving a class (MigrateSlab, DonateSlab) is a page leaving it.
//     Once the donor's evictions have freed a slab's worth of slots, compact
//     takes the page with the fewest residents, copies their keys and values
//     into free slots on the class's other pages and repoints their records.
//     Every reader copies a value, and every holder of a key that outlives
//     the lock (ScanKeys, the stale buffer, a policy's mirror) copies the key,
//     under the engine lock, so nothing outside the engine still holds the
//     old slot. The emptied page is re-carved by the receiving class, or,
//     donated, unmapped.
//
// storeValue and releaseValue are the only places a slot changes hands;
// besides them only compact and the in-place rewrites of setLocked and
// rewriteLocked (after the key, within the slot) write a value. The race
// detector cannot see these pages, so its build poisons every slot an item
// leaves with 0xDB.

// page is one slab of value memory and the slots its class carved from it.
type page struct {
	mem   []byte
	base  uintptr  // the address of mem, by which a class orders its pages
	owner []uint32 // the resident's record id in each slot; 0 while the slot is free
	used  int      // slots with an owner
	id    uint32   // index in arena.pages: the high half of a slot ref
}

// arena maps an engine's pages and unmaps them. It is an object of its own so
// that the finalizer returning the pages of an unreachable engine sits on
// something nothing in the engine points back at.
type arena struct {
	size  int
	pages []*page  // by id; nil where a page was unmapped
	spare []uint32 // ids of unmapped pages, reused first
}

func newArena(size int) *arena {
	a := &arena{size: size}
	runtime.SetFinalizer(a, (*arena).unmapAll)
	return a
}

// mapped returns the number of pages mapped.
func (a *arena) mapped() int { return len(a.pages) - len(a.spare) }

func (a *arena) mapPage() *page {
	p := &page{mem: mapPage(a.size)}
	p.base = uintptr(unsafe.Pointer(unsafe.SliceData(p.mem)))
	if n := len(a.spare); n > 0 {
		p.id, a.spare = a.spare[n-1], a.spare[:n-1]
		a.pages[p.id] = p
	} else {
		p.id = uint32(len(a.pages))
		a.pages = append(a.pages, p)
	}
	return p
}

func (a *arena) unmap(p *page) {
	unmapPage(p.mem)
	a.pages[p.id] = nil
	a.spare = append(a.spare, p.id)
}

func (a *arena) unmapAll() {
	for _, p := range a.pages {
		if p != nil {
			unmapPage(p.mem)
		}
	}
}

// slotRef names slot i of page p on a free stack.
func slotRef(p *page, i int) uint64 { return uint64(p.id)<<32 | uint64(i) }

// slotOf returns the page of class k that holds the slot at address a, and
// the slot's index on it.
func (k *class) slotOf(a uintptr) (*page, int) {
	lo, hi := 0, len(k.pages)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); k.pages[mid].base <= a {
			lo = mid
		} else {
			hi = mid
		}
	}
	p := k.pages[lo]
	return p, int(a-p.base) / k.slot
}

// grantPage maps a page for the slab class cl was just granted and carves it.
func (c *Cache) grantPage(cl int) {
	if c.arena != nil {
		c.carve(cl, c.arena.mapPage())
	}
}

// carve gives page p, holding no value, to class cl: its slots, cut at the
// class's slot size, go onto the free stack lowest address on top.
func (c *Cache) carve(cl int, p *page) {
	k := &c.classes[cl]
	if cap(p.owner) < k.spc {
		p.owner = make([]uint32, k.spc)
	}
	p.owner = p.owner[:k.spc]
	at, _ := slices.BinarySearchFunc(k.pages, p.base, func(q *page, b uintptr) int { return cmp.Compare(q.base, b) })
	k.pages = slices.Insert(k.pages, at, p)
	for i := k.spc - 1; i >= 0; i-- {
		k.vfree = append(k.vfree, slotRef(p, i))
	}
}

// storeValue copies key and then value into the slot on top of class cl's
// free stack, hands the slot to item id and points its record at the copies.
// The caller has already taken the slot in the slab accounting, and key and
// value fit the slot together.
func (c *Cache) storeValue(id uint32, it *kv.Item, cl int, key string, value []byte) {
	k := &c.classes[cl]
	n := len(k.vfree) - 1
	r := k.vfree[n]
	k.vfree = k.vfree[:n]
	p, i := c.arena.pages[r>>32], int(uint32(r))
	p.owner[i] = id
	p.used++
	slot := p.mem[i*k.slot : (i+1)*k.slot]
	kn := copy(slot, key)
	it.Slot = uintptr(unsafe.Pointer(unsafe.SliceData(slot)))
	it.KLen = uint16(kn)
	it.VLen = uint32(copy(slot[kn:], value))
}

// releaseValue detaches the item's key and value and pushes their slot onto
// the class's free stack. The caller has already freed the slot in the slab
// accounting.
func (c *Cache) releaseValue(it *kv.Item) {
	if c.arena == nil {
		return
	}
	k := &c.classes[it.Class]
	p, i := k.slotOf(it.Slot)
	it.Slot, it.KLen, it.VLen = 0, 0, 0
	p.owner[i] = 0
	p.used--
	poison(p.mem[i*k.slot : (i+1)*k.slot])
	k.vfree = append(k.vfree, slotRef(p, i))
}

// compact empties the page of class cl holding the fewest residents and takes
// it from the class: its free slots leave the stack and its residents' keys
// and values move into free slots on the class's other pages, which hold
// enough because the caller freed a slab's worth of slots first. The caller has released the
// slab in the accounting and hands the page on. A tie goes to the lowest page
// id, not the lowest address, so twin engines compact alike.
func (c *Cache) compact(cl int) *page {
	k := &c.classes[cl]
	at := 0
	for j, p := range k.pages {
		if q := k.pages[at]; p.used < q.used || p.used == q.used && p.id < q.id {
			at = j
		}
	}
	donor := k.pages[at]
	k.pages = slices.Delete(k.pages, at, at+1)
	k.vfree = slices.DeleteFunc(k.vfree, func(r uint64) bool { return uint32(r>>32) == donor.id })
	for i, id := range donor.owner {
		if id == 0 {
			continue
		}
		it := c.recs.At(id)
		c.storeValue(id, it, cl, it.Key(), it.Value())
		donor.owner[i] = 0
		poison(donor.mem[i*k.slot : (i+1)*k.slot])
		c.stats.SlabRelocations++
	}
	donor.used = 0
	return donor
}

// poison fills a slot an item has left, in the race build only.
func poison(slot []byte) {
	if raceEnabled {
		for i := range slot {
			slot[i] = 0xDB
		}
	}
}

// checkValuesLocked audits slot ownership: every class owns one page per slab
// and stacks exactly its free slots, every slot is free or held by the one
// resident its page names, and every resident's key heads such a slot, its
// value after it, within the slot.
func (c *Cache) checkValuesLocked() error {
	pages := 0
	for ci := range c.classes {
		k := &c.classes[ci]
		if c.arena == nil {
			if len(k.pages) != 0 || len(k.vfree) != 0 {
				return fmt.Errorf("cache: class %d holds value pages in a metadata-only engine", ci)
			}
			continue
		}
		if len(k.pages) != c.slabs.Slabs(ci) {
			return fmt.Errorf("cache: class %d owns %d value pages, slab accounting says %d slabs",
				ci, len(k.pages), c.slabs.Slabs(ci))
		}
		if len(k.vfree) != c.slabs.FreeSlots(ci) {
			return fmt.Errorf("cache: class %d stacks %d value slots, slab accounting has %d free",
				ci, len(k.vfree), c.slabs.FreeSlots(ci))
		}
		held := 0
		for j, p := range k.pages {
			if c.arena.pages[p.id] != p || len(p.owner) != k.spc || (j > 0 && k.pages[j-1].base >= p.base) {
				return fmt.Errorf("cache: class %d page %d is not a mapped page carved for the class, in address order", ci, j)
			}
			used := 0
			for i, id := range p.owner {
				if id == 0 {
					continue
				}
				used++
				if it := c.recs.At(id); int(it.Class) != ci || c.index.Get(it.Hash, it.Key()) != id {
					return fmt.Errorf("cache: class %d page %d slot %d is held by an item that is not one of the class's residents", ci, j, i)
				}
			}
			if used != p.used {
				return fmt.Errorf("cache: class %d page %d counts %d residents, its slots hold %d", ci, j, p.used, used)
			}
			held += used
		}
		if held+len(k.vfree) != len(k.pages)*k.spc {
			return fmt.Errorf("cache: class %d has %d slots held and %d stacked of %d: a slot is lost",
				ci, held, len(k.vfree), len(k.pages)*k.spc)
		}
		stacked := make(map[uint64]bool, len(k.vfree))
		for _, r := range k.vfree {
			id, i := r>>32, int(uint32(r))
			if id >= uint64(len(c.arena.pages)) || !slices.Contains(k.pages, c.arena.pages[id]) || i >= k.spc {
				return fmt.Errorf("cache: class %d stacks a slot outside its pages", ci)
			}
			if stacked[r] {
				return fmt.Errorf("cache: class %d stacks one value slot twice", ci)
			}
			stacked[r] = true
			if o := c.arena.pages[id].owner[i]; o != 0 {
				return fmt.Errorf("cache: resident %q holds a value slot that is also on class %d's free stack", c.recs.At(o).Key(), ci)
			}
		}
		pages += len(k.pages)
	}
	if c.arena == nil {
		return nil
	}
	if pages != c.arena.mapped() {
		return fmt.Errorf("cache: classes own %d value pages, %d are mapped", pages, c.arena.mapped())
	}
	var err error
	c.index.Range(func(id uint32, it *kv.Item) bool {
		k := &c.classes[it.Class]
		a := it.Slot
		if len(k.pages) > 0 {
			p, i := k.slotOf(a)
			if a >= p.base && i < len(p.owner) && a == p.base+uintptr(i*k.slot) && p.owner[i] == id &&
				int(it.KLen)+int(it.VLen) <= k.slot {
				return true
			}
		}
		err = fmt.Errorf("cache: resident %q's key and value are not a slot of a page its class %d owns, key first", it.Key(), it.Class)
		return false
	})
	return err
}
