// Package kv defines the key-value item representation shared by the cache
// engine and its substrates, together with the slab-class size geometry used
// by Memcached-style allocators.
//
// Items carry the intrusive links of the LRU lists (package lru), and the
// hash index (package hashtable) stores *Item in its own slot array, so a
// resident item costs exactly one allocation and every list operation is
// pointer surgery, never a container allocation. The fields are exported
// because the sibling internal packages splice them directly; outside code
// never sees a *kv.Item.
package kv

import (
	"fmt"
	"math"
)

// Op identifies a request operation in traces and workloads.
type Op uint8

const (
	// Get retrieves an item.
	Get Op = iota
	// Set inserts or replaces an item.
	Set
	// Delete removes an item.
	Delete
)

// String returns the Memcached-style lower-case name of the operation.
func (o Op) String() string {
	switch o {
	case Get:
		return "get"
	case Set:
		return "set"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Item is one cached object: key, logical size, last observed miss penalty,
// and the intrusive hooks that place it in exactly one LRU stack. An evicted
// item is pooled for reuse; the engine remembers it in a ghost region by hash
// and penalty only (package cache).
//
// The struct is 120 bytes, so the allocator's 128-byte size class, whose
// objects are 64-byte aligned, gives every item one adjacent pair of cache
// lines instead of a span over three. The first line holds what an index
// probe compares (Key, Hash) and what a hit tests next; the value and the
// links follow. A field added here fails the root layout test
// (TestItemLayout), not a benchmark.
type Item struct {
	// Key is the full key string. For simulator-generated workloads it is
	// the 8-byte big-endian encoding of a numeric key id. An engine that
	// stores values keeps the key at the head of the item's value slot and
	// Key aliases those bytes: they move with the value and are reused once
	// the item leaves, so a holder that outlives the engine lock copies them.
	Key string
	// Hash caches the 64-bit hash of Key used by the index and the Bloom
	// filters; it is computed once at insertion and must not change while
	// the item is indexed (the index keeps a copy in the item's slot and
	// finds the slot again from it).
	Hash uint64
	// Size is the item's footprint in bytes charged against its slot: key
	// length + value length + per-item metadata overhead. A slot is never
	// larger than a slab, and Geometry.Validate caps a slab at 32 bits.
	Size int32
	// Class and Sub locate the LRU stack holding the item.
	Class, Sub int32
	// Flags carries opaque client flags (Memcached protocol compatibility).
	Flags uint32
	// Tenant is the id of the tenant that owns the item (0 = default
	// tenant). Stamped by the engine from its Config; package tenant uses
	// it to audit that a tenant's engine only ever holds that tenant's
	// items.
	Tenant int32
	// ExpireAt is the unix-seconds expiry deadline; 0 means no expiry.
	// Expiry is lazy: the engine reaps an expired item when a GET finds
	// it, as Memcached does.
	ExpireAt int64

	// Value holds the item bytes when the cache stores values; nil in
	// metadata-only (simulation) mode. It is the rest of a slot of one of the
	// engine's slab pages (package cache), after the key, not the item's: the
	// engine may move key and value to another slot of the class under its
	// lock, and detaches both before the item is pooled.
	Value []byte
	// Penalty is the most recently observed miss penalty for this key, in
	// seconds. It selects the penalty subclass under PAMA and prices the
	// segment an access lands in.
	Penalty float64
	// Seq is the item's segment tag, owned by segment.Exact on resident
	// stacks: 0..nseg-1 inside the tracked bottom region, nseg above it. A
	// policy may repurpose it as per-item scratch only when its Segments()
	// is 0 (policy.CAMP stores its insertion-time clock here). Package mrc's
	// shadow items, which never enter an engine, carry its rank ring's
	// sequence here.
	Seq uint64
	// CAS is the compare-and-set token, changed on every store of the
	// key (Memcached cas semantics).
	CAS uint64

	// Prev and Next are the intrusive LRU links (owned by package lru).
	Prev, Next *Item
}

// Reset clears an item for reuse from a free pool.
func (it *Item) Reset() { *it = Item{} }

// Geometry describes the slab-class layout. In the default (power-of-two)
// law, class i holds items of size at most Base << i; when Slots is set it
// overrides the law with an arbitrary strictly increasing slot-size table
// (learned geometries, package geom). Either way there are NumClasses
// classes and each slab is SlabSize bytes.
//
// The zero Geometry is not valid; use DefaultGeometry, NewTableGeometry, or
// fill all fields. Geometry contains a slice, so compare with Equal/IsZero,
// never ==.
type Geometry struct {
	// SlabSize is the size of one slab in bytes (Memcached default 1 MiB).
	SlabSize int
	// Base is the slot size of class 0 in bytes (paper: 64). Ignored when
	// Slots is set.
	Base int
	// NumClasses is the number of size classes. Under the power-of-two law
	// the largest class slot is Base << (NumClasses-1), which must not
	// exceed SlabSize; with Slots set, NumClasses must equal len(Slots).
	NumClasses int
	// Slots, when non-nil, is the slot size of each class: strictly
	// increasing, with Slots[len-1] <= SlabSize. nil selects the
	// power-of-two law (all seed behavior).
	Slots []int
}

// DefaultGeometry mirrors the paper's setup: 1 MiB slabs, class 0 at 64 B,
// doubling per class, 15 classes (largest slot 1 MiB).
func DefaultGeometry() Geometry {
	return Geometry{SlabSize: 1 << 20, Base: 64, NumClasses: 15}
}

// NewTableGeometry builds a table-driven geometry from an explicit slot-size
// list, validating it.
func NewTableGeometry(slabSize int, slots []int) (Geometry, error) {
	g := Geometry{
		SlabSize:   slabSize,
		NumClasses: len(slots),
		Slots:      append([]int(nil), slots...),
	}
	if len(slots) > 0 {
		g.Base = slots[0]
	}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// IsZero reports whether g is the zero Geometry (meaning "use the default").
func (g Geometry) IsZero() bool {
	return g.SlabSize == 0 && g.Base == 0 && g.NumClasses == 0 && g.Slots == nil
}

// Equal reports whether two geometries describe the same layout: same slab
// size, same class count, and the same slot size for every class (a table
// geometry equals a power-of-two geometry when the tables coincide).
func (g Geometry) Equal(o Geometry) bool {
	if g.SlabSize != o.SlabSize || g.NumClasses != o.NumClasses {
		return false
	}
	for c := 0; c < g.NumClasses; c++ {
		if g.SlotSize(c) != o.SlotSize(c) {
			return false
		}
	}
	return true
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.SlabSize <= 0:
		return fmt.Errorf("kv: slab size %d must be positive", g.SlabSize)
	case g.SlabSize > math.MaxInt32:
		return fmt.Errorf("kv: slab size %d exceeds an item's 32-bit size", g.SlabSize)
	case g.NumClasses <= 0:
		return fmt.Errorf("kv: class count %d must be positive", g.NumClasses)
	}
	if g.Slots != nil {
		if len(g.Slots) != g.NumClasses {
			return fmt.Errorf("kv: slot table holds %d entries for %d classes",
				len(g.Slots), g.NumClasses)
		}
		prev := 0
		for c, s := range g.Slots {
			if s <= prev {
				return fmt.Errorf("kv: slot table not strictly increasing at class %d (%d after %d)",
					c, s, prev)
			}
			prev = s
		}
		if g.Slots[len(g.Slots)-1] > g.SlabSize {
			return fmt.Errorf("kv: largest slot %d exceeds slab size %d",
				g.Slots[len(g.Slots)-1], g.SlabSize)
		}
		return nil
	}
	switch {
	case g.Base <= 0:
		return fmt.Errorf("kv: base slot size %d must be positive", g.Base)
	case g.NumClasses > 62:
		return fmt.Errorf("kv: class count %d overflows the power-of-two law", g.NumClasses)
	case g.SlotSize(g.NumClasses-1) > g.SlabSize:
		return fmt.Errorf("kv: largest slot %d exceeds slab size %d",
			g.SlotSize(g.NumClasses-1), g.SlabSize)
	}
	return nil
}

// SlotSize returns the slot size of class c in bytes.
func (g Geometry) SlotSize(c int) int {
	if g.Slots != nil {
		return g.Slots[c]
	}
	return g.Base << uint(c)
}

// SlotsPerSlab returns how many slots one slab yields in class c.
func (g Geometry) SlotsPerSlab(c int) int { return g.SlabSize / g.SlotSize(c) }

// MaxItemSize returns the largest cacheable item size.
func (g Geometry) MaxItemSize() int { return g.SlotSize(g.NumClasses - 1) }

// ClassFor returns the smallest class whose slot fits size bytes, or -1 if
// the item is too large to cache.
func (g Geometry) ClassFor(size int) int {
	if size <= 0 {
		size = 1
	}
	if g.Slots != nil {
		if size > g.Slots[len(g.Slots)-1] {
			return -1
		}
		// Binary search for the first slot >= size.
		lo, hi := 0, len(g.Slots)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if size <= g.Slots[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	s := g.Base
	for c := 0; c < g.NumClasses; c++ {
		if size <= s {
			return c
		}
		s <<= 1
	}
	return -1
}
