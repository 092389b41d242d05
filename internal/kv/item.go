package kv

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Item is one cached object's record: 64 bytes, one cache line, and no Go
// pointer, so the memory records sit in (Records) is memory the collector
// never scans. The first words are what an index probe and a hit read (Hash,
// CAS, Penalty, the key's address); the links, sizes and tags follow. A field
// added here fails the root layout test (TestItemLayout), not a benchmark.
//
// An item is named by its uint32 id in its Records store: the LRU links, the
// segment boundaries and the hash index hold ids. In a value-storing engine
// the record heads the item's slab slot, key and value after it, and the id
// names the slot; only compaction moves it, and repoints every holder of the
// id as it does. A *Item handed to a policy hook is valid while the engine
// lock is held.
type Item struct {
	// Hash caches the 64-bit hash of the key used by the index and the Bloom
	// filters; it is computed once at insertion and must not change while
	// the item is indexed (the index keeps its low 32 bits in the item's
	// slot and finds the slot again from them).
	Hash uint64
	// CAS is the compare-and-set token, changed on every store of the key
	// (Memcached cas semantics).
	CAS uint64
	// Penalty is the most recently observed miss penalty for this key, in
	// seconds. It selects the penalty subclass under PAMA and prices the
	// segment an access lands in.
	Penalty float64
	// Slot is the address of the key's bytes; the value's follow them. In an
	// engine that stores values they follow the record in its slab slot
	// (package cache), so Slot points just past the record; elsewhere it is
	// the data of a key string its Records store holds (HoldKey). The
	// collector does not follow a uintptr: whatever owns the bytes keeps them.
	Slot uintptr
	// Prev and Next are the ids of the item's LRU neighbours (package lru),
	// 0 at either end. A free record chains the free list through Next.
	Prev, Next uint32
	// Seq is the item's segment tag, owned by segment.Exact on resident
	// stacks: 0..nseg-1 inside the tracked bottom region, nseg above it. A
	// policy may repurpose it as per-item scratch only when its Segments()
	// is 0. Package mrc's shadow items, which never enter an engine, carry
	// its rank ring's sequence here.
	Seq uint32
	// Size is the item's footprint in bytes charged against its slot: key
	// length + value length + per-item metadata overhead. A slot is never
	// larger than a slab, and Geometry.Validate caps a slab at 32 bits.
	Size int32
	// Flags carries opaque client flags (Memcached protocol compatibility).
	Flags uint32
	// VLen is the value's length in bytes; 0 in metadata-only mode.
	VLen uint32
	// ExpireAt is the unix-seconds expiry deadline (Deadline); 0 means no
	// expiry. Expiry is lazy: the engine reaps an expired item when a GET
	// finds it, as Memcached does.
	ExpireAt uint32
	// KLen is the key's length in bytes (at most MaxKeyLen).
	KLen uint16
	// Class and Sub locate the LRU stack holding the item.
	Class, Sub uint8
}

// MaxKeyLen is the longest key a record holds.
const MaxKeyLen = math.MaxUint16

// Reset clears a record.
func (it *Item) Reset() { *it = Item{} }

// Key returns the item's key. It aliases the bytes Slot names: a holder that
// outlives the engine lock copies it.
func (it *Item) Key() string { return unsafe.String((*byte)(it.slot()), it.KLen) }

// Value returns the item's value, aliasing its bytes as Key does; nil when it
// is empty.
func (it *Item) Value() []byte {
	if it.VLen == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Add(it.slot(), it.KLen)), it.VLen)
}

// Mem returns the n bytes at Slot: the room a value-storing engine's slot
// has after the record, key first.
func (it *Item) Mem(n int) []byte { return unsafe.Slice((*byte)(it.slot()), n) }

// slot reads Slot as the pointer it holds.
func (it *Item) slot() unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&it.Slot)) }

// Deadline converts a unix-seconds expiry to an Item.ExpireAt: 0 stays "never",
// a negative deadline becomes 1 (long past), and one beyond the uint32 range
// becomes its last second (the year 2106).
func Deadline(unix int64) uint32 {
	switch {
	case unix < 0:
		return 1
	case unix > math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(unix)
}

// chunkShift sets a chunk at 1<<chunkShift records, 64 KiB: a multiple of the
// heap's 8 KiB pages, so the allocator gives every chunk a page-aligned span
// of its own and every record one whole cache line.
const chunkShift = 10

// ChunkLen is the number of records in one chunk.
const ChunkLen = 1 << chunkShift

// Records is a store of items addressed by uint32 ids. An id names a page of
// records and a record on it: its high bits pick an entry of the page table,
// and the record sits at that page's base plus the id's low bits times the
// page's stride. A store's records live in one of two places:
//
//   - Chunks on the Go heap (New, Free, HoldKey), for the engines that keep
//     no values and the shadows of package mrc: ChunkLen 64-byte records a
//     chunk, allocated as they are needed and kept for reuse until the store
//     is empty. A chunk has no pointer, so the collector never walks it, and
//     the records are one heap object per ChunkLen of them, not one per item.
//   - The slots of pages their owner maps outside the heap (MapPage): a
//     value-storing engine heads each slot of its value pages with the record
//     of the item it holds, so the id of a record is the name of its slot.
//
// Id 0 is never handed out; it is every link's nil. The zero value is an
// empty chunk store ready to use.
type Records struct {
	pages []recPage // by page id: a chunk's index, or the id MapPage was given
	shift uint      // the id bits that index a record on its page
	// The chunk store: chunks by page id, the lowest id never handed out
	// (once the first is), the last record freed (the others chain through
	// Next) and the records in use.
	chunks []*[ChunkLen]Item
	next   uint32
	free   uint32
	live   int
	// keys holds the strings HoldKey points records at, by id.
	keys []string
}

// recPage is an entry of the page table.
type recPage struct {
	base   uintptr // the address of the page's first record
	stride uintptr // the bytes from one record to the next
}

// At returns the record of id. The address is computed from the page's base
// rather than indexed: an index makes the compiler nil-check the page by
// loading its first line, and the pages' first lines, all page-aligned, crowd
// the same cache sets.
func (r *Records) At(id uint32) *Item {
	p := r.pages[id>>r.shift]
	a := p.base + uintptr(id&(1<<r.shift-1))*p.stride
	return *(**Item)(unsafe.Pointer(&a))
}

// New hands out a zeroed record of the chunk store and its id, the last one
// freed first.
func (r *Records) New() (uint32, *Item) {
	r.live++
	if id := r.free; id != 0 {
		it := r.At(id)
		r.free, it.Next = it.Next, 0
		return id, it
	}
	if r.next == 0 {
		r.next, r.shift = 1, chunkShift
	}
	if r.next == math.MaxUint32 {
		panic("kv: records exhausted the uint32 id space")
	}
	id := r.next
	r.next++
	if int(id>>chunkShift) == len(r.chunks) {
		ch := new([ChunkLen]Item)
		r.chunks = append(r.chunks, ch)
		r.pages = append(r.pages, recPage{uintptr(unsafe.Pointer(ch)), unsafe.Sizeof(Item{})})
	}
	return id, r.At(id)
}

// Free returns record id to the chunk store, zeroed, and lets go of a key
// HoldKey gave it. Freeing the last live record gives back every chunk and
// held key, as a flush does: the store is the zero value again.
func (r *Records) Free(id uint32) {
	if r.live == 1 {
		*r = Records{}
		return
	}
	it := r.At(id)
	it.Reset()
	it.Next, r.free = r.free, id
	r.live--
	if int(id) < len(r.keys) {
		r.keys[id] = ""
	}
}

// HoldKey points record id at key and keeps key alive until the record is
// freed: the key store of an engine, or a shadow, that keeps no values.
func (r *Records) HoldKey(id uint32, key string) {
	if n := int(id) + 1; n > len(r.keys) {
		r.keys = slices.Grow(r.keys, n-len(r.keys))[:n]
	}
	r.keys[id] = key
	it := r.At(id)
	it.Slot = uintptr(unsafe.Pointer(unsafe.StringData(key)))
	it.KLen = uint16(len(key))
}

// Len returns the number of records of the chunk store handed out and not
// freed.
func (r *Records) Len() int { return r.live }

// Bytes returns the heap the store's chunks take.
func (r *Records) Bytes() int64 {
	return int64(len(r.chunks)) * ChunkLen * int64(unsafe.Sizeof(Item{}))
}

// SetPageBits makes an empty store one of mapped pages whose ids index a
// record with their low bits: a page holds at most 1<<bits records, and page
// ids run below 1<<(32-bits).
func (r *Records) SetPageBits(bits uint) { r.shift = bits }

// MapPage makes page pid, which must not be 0, hold records of stride bytes
// from base: ID(pid, i) names the one at base + i*stride. The caller owns the
// memory and keeps it mapped while any of those ids is in use; it maps the
// page again when it cuts the page into records of another size.
func (r *Records) MapPage(pid uint32, base uintptr, stride int) {
	if pid == 0 || uint64(pid) >= 1<<(32-r.shift) {
		panic(fmt.Sprintf("kv: page id %d outside the %d bits an id has for it", pid, 32-r.shift))
	}
	if n := int(pid) + 1; n > len(r.pages) {
		r.pages = slices.Grow(r.pages, n-len(r.pages))[:n]
	}
	r.pages[pid] = recPage{base, uintptr(stride)}
}

// ID returns the id of record i of page pid.
func (r *Records) ID(pid uint32, i int) uint32 { return pid<<r.shift | uint32(i) }

// PageOf returns the page and the index on it of record id.
func (r *Records) PageOf(id uint32) (pid uint32, i int) {
	return id >> r.shift, int(id & (1<<r.shift - 1))
}
