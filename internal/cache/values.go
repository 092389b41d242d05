package cache

import (
	"fmt"
	"slices"
	"unsafe"

	"pamakv/internal/kv"
)

// Item memory. When StoreValues is on, items live in real slabs: each slab a
// class owns is one page of Geometry.SlabSize bytes mapped outside the Go heap
// (kv.Mapped; a heap []byte where the platform has no mmap), faulted in as
// it is written and carved into slots of the class's size when the class is
// granted it. A resident item owns one slot, as a Memcached item owns its
// chunk, and the slot is charged for the item's 64-byte record (kv.Item), its
// key and its value. A page of spc slots packs their records at its head,
// slot i's at base + 64·i, and cuts the rest into a data area of spc rooms
// of slot−64 bytes, slot i's at base + spc·64 + i·(slot−64), key first and
// value after it. The record's id names the slot, the page's id in its high
// bits and the slot's index in the low ones (kv.ID), so resolving an id is
// one shift, one load and one add whatever the class (kv.Records.At); the
// record's Slot points at its room, so Key and Value alias the bytes there.
// The collector neither scans nor frees any of it, an inserting store
// allocates nothing, and the item memory of an engine is exactly the pages
// slab.Manager says its classes own.
//
// Pages follow the slab accounting:
//
//   - A class granted a slab (growth) maps a page and stacks its slots' ids on
//     class.vfree, so len(vfree) is always slabs.FreeSlots(class): a store
//     pops a slot, a release pushes one, both O(1). A slot on the stack is
//     free; every other slot of the class's pages holds a resident.
//   - A slab leaving a class (MigrateSlab, DonateSlab) is a page leaving it.
//     Once the donor's evictions have freed a slab's worth of slots, compact
//     takes the page with the fewest residents and copies each resident's
//     record, and its key and value, into a free slot on the class's other
//     pages, which names it by a new id. It repoints every holder of the old one: the
//     index slot (found by the record's hash), the LRU neighbours or the
//     list's ends, and an exact tracker's segment boundary. Nothing else holds
//     an id across the engine lock. Every reader copies a value, and every
//     holder of a key that outlives the lock (ScanKeys, the stale buffer, a
//     policy's mirror) copies the key, under the engine lock, so nothing
//     outside the engine still holds the old slot. The emptied page is
//     re-carved by the receiving class, or, donated, unmapped.
//
// takeSlot and releaseSlot are the only places a slot changes hands; besides
// them only compact and the in-place rewrites of storeLocked and
// rewriteLocked (after the key, within the slot) write an item. The race
// detector cannot see these pages, so its build poisons every slot an item
// leaves with 0xDB, record and room: whether a slot is free is read from the
// free stack, never from the bytes in it.

// itemHeader is the record a value-storing engine's slot is charged for: the
// least any item is charged.
const itemHeader = int(unsafe.Sizeof(kv.Item{}))

// page is one slab of item memory.
type page struct {
	mem  *kv.Mapped[byte]
	used int    // slots holding a resident
	id   uint32 // index in arena.pages, and the page bits of its slots' ids
}

// arena maps an engine's pages and unmaps them. A page dropped with its
// engine is unmapped by its mapping's finalizer.
type arena struct {
	size  int
	pages []*page  // by id; nil at 0, which no page has, and where a page was unmapped
	spare []uint32 // ids of unmapped pages, reused first
}

func newArena(size int) *arena { return &arena{size: size, pages: []*page{nil}} }

// mapped returns the number of pages mapped.
func (a *arena) mapped() int { return len(a.pages) - 1 - len(a.spare) }

func (a *arena) mapPage() *page {
	p := &page{mem: kv.Map[byte](a.size)}
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
	p.mem.Unmap()
	a.pages[p.id] = nil
	a.spare = append(a.spare, p.id)
}

// recMem returns the bytes of record it.
func recMem(it *kv.Item) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(it)), itemHeader) }

// room returns the address of the room for key and value of slot id of class
// k, whose record is it: past the page's block of spc records, slot−64 bytes
// a slot.
func (k *class) room(id uint32, it *kv.Item) uintptr {
	_, i := kv.PageOf(id)
	base := uintptr(unsafe.Pointer(it)) - uintptr(i*itemHeader)
	return base + uintptr(k.spc*itemHeader+i*(k.slot-itemHeader))
}

// grantPage maps a page for the slab class cl was just granted, makes its
// head the records of its ids and carves it.
func (c *Cache) grantPage(cl int) {
	if c.arena != nil {
		p := c.arena.mapPage()
		c.recs.MapPage(p.id, uintptr(unsafe.Pointer(unsafe.SliceData(p.mem.S()))))
		c.carve(cl, p)
	}
}

// carve gives page p, holding no item, to class cl: its spc slots go onto the
// free stack lowest address on top.
func (c *Cache) carve(cl int, p *page) {
	k := &c.classes[cl]
	k.pages = append(k.pages, p)
	for i := k.spc - 1; i >= 0; i-- {
		k.vfree = append(k.vfree, kv.ID(p.id, i))
	}
}

// takeSlot hands out the slot on top of class cl's free stack: its id and
// its record, which holds whatever the slot held last. The caller has already
// taken the slot in the slab accounting.
func (c *Cache) takeSlot(cl int) (uint32, *kv.Item) {
	k := &c.classes[cl]
	n := len(k.vfree) - 1
	id := k.vfree[n]
	k.vfree = k.vfree[:n]
	pid, _ := kv.PageOf(id)
	c.arena.pages[pid].used++
	return id, c.recs.At(id)
}

// storeValue takes a slot of class cl for a new item: its record is zeroed and
// pointed at the slot's room, and key and then value are copied there. The
// record, key and value fit the slot together.
func (c *Cache) storeValue(cl int, key string, value []byte) (uint32, *kv.Item) {
	k := &c.classes[cl]
	id, it := c.takeSlot(cl)
	*it = kv.Item{Slot: k.room(id, it)}
	room := it.Mem(k.slot - itemHeader)
	kn := copy(room, key)
	it.KLen = uint16(kn)
	it.VLen = uint32(copy(room[kn:], value))
	return id, it
}

// releaseSlot pushes the slot of item id, detached, onto its class's free
// stack. The caller has already freed the slot in the slab accounting.
func (c *Cache) releaseSlot(id uint32, it *kv.Item) {
	k := &c.classes[it.Class]
	pid, _ := kv.PageOf(id)
	c.arena.pages[pid].used--
	poison(it.Mem(k.slot - itemHeader))
	poison(recMem(it))
	k.vfree = append(k.vfree, id)
}

// compact empties the page of class cl holding the fewest residents and takes
// it from the class: its free slots leave the stack and its residents'
// records, keys and values move into free slots on the class's other pages, which
// hold enough because the caller freed a slab's worth of slots first. Each
// moved item's old id is repointed to its new one wherever the engine holds
// it. The caller has released the slab in the accounting and hands the page
// on. A tie goes to the lowest page id, not the lowest address, so twin
// engines compact alike.
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
	free := make([]bool, k.spc)
	k.vfree = slices.DeleteFunc(k.vfree, func(id uint32) bool {
		pid, i := kv.PageOf(id)
		if pid == donor.id {
			free[i] = true
		}
		return pid == donor.id
	})
	for i, f := range free {
		if f {
			continue
		}
		old := kv.ID(donor.id, i)
		src := c.recs.At(old)
		id, it := c.takeSlot(cl)
		*it = *src
		it.Slot = k.room(id, it)
		n := int(src.KLen) + int(src.VLen)
		copy(it.Mem(n), src.Mem(n))
		c.index.Repoint(it.Hash, old, id)
		s := &k.subs[it.Sub]
		s.list.Repoint(id)
		if s.tr != nil {
			s.tr.Repoint(old, id)
		}
		poison(src.Mem(k.slot - itemHeader))
		poison(recMem(src))
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
// and stacks exactly its free slots, each once; every slot of its pages not
// on the stack holds one of the class's residents, indexed by the slot's id,
// its record at the page's head and its key and value in the slot's room; and
// those are all the residents.
func (c *Cache) checkValuesLocked() error {
	if c.arena == nil {
		for ci := range c.classes {
			if k := &c.classes[ci]; len(k.pages) != 0 || len(k.vfree) != 0 {
				return fmt.Errorf("cache: class %d holds value pages in a metadata-only engine", ci)
			}
		}
		return nil
	}
	pages, held := 0, 0
	stacked := map[uint32]bool{}
	for ci := range c.classes {
		k := &c.classes[ci]
		if len(k.pages) != c.slabs.Slabs(ci) {
			return fmt.Errorf("cache: class %d owns %d value pages, slab accounting says %d slabs",
				ci, len(k.pages), c.slabs.Slabs(ci))
		}
		if len(k.vfree) != c.slabs.FreeSlots(ci) {
			return fmt.Errorf("cache: class %d stacks %d value slots, slab accounting has %d free",
				ci, len(k.vfree), c.slabs.FreeSlots(ci))
		}
		for _, id := range k.vfree {
			if !c.ownsSlot(ci, id) {
				return fmt.Errorf("cache: class %d stacks a slot outside its pages", ci)
			}
			if stacked[id] {
				return fmt.Errorf("cache: class %d stacks one value slot twice", ci)
			}
			stacked[id] = true
		}
	}
	// A free slot's bytes are not a record: the residents are read through
	// the index before any slot is.
	var err error
	c.index.Range(func(id uint32, it *kv.Item) bool {
		switch {
		case stacked[id]:
			err = fmt.Errorf("cache: resident %q holds a slot that is also on class %d's free stack", it.Key(), it.Class)
		case !c.ownsSlot(int(it.Class), id):
			err = fmt.Errorf("cache: resident %q is not in a slot of a page its class %d owns", it.Key(), it.Class)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	for ci := range c.classes {
		k := &c.classes[ci]
		for j, p := range k.pages {
			if p.id == 0 || c.arena.pages[p.id] != p || c.recs.At(kv.ID(p.id, 0)) != (*kv.Item)(unsafe.Pointer(&p.mem.S()[0])) ||
				k.spc > 1 && c.recs.At(kv.ID(p.id, 1)) != (*kv.Item)(unsafe.Pointer(&p.mem.S()[itemHeader])) {
				return fmt.Errorf("cache: class %d page %d is not a mapped page carved for the class", ci, j)
			}
			used := 0
			for i := range k.spc {
				id := kv.ID(p.id, i)
				if stacked[id] {
					continue
				}
				used++
				it := c.recs.At(id)
				if int(it.Class) != ci || itemHeader+int(it.KLen)+int(it.VLen) > k.slot || it.Slot != k.room(id, it) {
					return fmt.Errorf("cache: class %d page %d slot %d is off the free stack but holds no resident of the class, key and value in its room", ci, j, i)
				}
				if c.index.Get(it.Hash, it.Key()) != id {
					return fmt.Errorf("cache: class %d page %d slot %d holds %q, which the index does not name by the slot", ci, j, i, it.Key())
				}
			}
			if used != p.used {
				return fmt.Errorf("cache: class %d page %d counts %d residents, its slots hold %d", ci, j, p.used, used)
			}
			held += used
		}
		pages += len(k.pages)
	}
	if pages != c.arena.mapped() {
		return fmt.Errorf("cache: classes own %d value pages, %d are mapped", pages, c.arena.mapped())
	}
	if held != c.index.Len() {
		return fmt.Errorf("cache: %d slots hold residents, the index holds %d", held, c.index.Len())
	}
	return nil
}

// ownsSlot reports whether id names a slot of a page class cl owns.
func (c *Cache) ownsSlot(cl int, id uint32) bool {
	pid, i := kv.PageOf(id)
	return int(pid) < len(c.arena.pages) && i < c.classes[cl].spc && c.arena.pages[pid] != nil &&
		slices.Contains(c.classes[cl].pages, c.arena.pages[pid])
}
