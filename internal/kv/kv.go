// Package kv defines the key-value item representation shared by the cache
// engine and its substrates, together with the slab-class size geometry used
// by Memcached-style allocators.
//
// An Item is a 64-byte record without Go pointers, named by a uint32 id of a
// Records store (item.go): in the chunks of the store, or in the record block
// at the head of its slab in an engine that stores values. The LRU links (package lru), the
// segment boundaries (package segment) and the hash index (package
// hashtable) hold ids, so no resident item is an object of its own for the
// collector to allocate, scan or free. The fields are exported because the
// sibling internal packages splice them directly; outside code never sees a
// *kv.Item.
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
