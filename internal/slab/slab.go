// Package slab implements the Memcached-style slab accounting substrate:
// a fixed budget of equally sized slabs, each owned by at most one size
// class and carved into equal slots sized for that class's items.
//
// The manager is the accounting: it tracks ownership and occupancy and
// enforces every capacity invariant (a class can never hold more items than
// slabs*slotsPerSlab; slabs move between classes only when the donor has a
// slab's worth of free slots). The memory it accounts for is held by package
// cache as slot buffers — one buffer of exactly the class's slot size per
// stored value, recycled through a per-class free stack that is never longer
// than FreeSlots reports, trimmed when a slab leaves the class and dropped
// whole when a live re-slab retires the geometry (cache/values.go). So the
// bytes a value-storing cache holds are bounded by what this manager says it
// owns, holes included, and the allocation *policy* — which the paper
// studies — sees the same world it would see over a pointer-bumping arena.
// Metadata-only simulators run the accounting alone. See DESIGN.md §5.
package slab

import (
	"fmt"

	"pamakv/internal/kv"
)

// Manager tracks slab ownership and slot occupancy across all classes.
type Manager struct {
	geom       kv.Geometry
	totalSlabs int
	freeSlabs  int
	classes    []classState

	// Migrations counts slabs moved between classes (not first
	// allocations from the free pool).
	Migrations uint64
}

type classState struct {
	slabs int // slabs owned
	used  int // occupied slots
	spc   int // slots per slab, fixed by the geometry
}

// NewManager creates a manager for a cache of cacheBytes bytes under the
// given geometry. The slab budget is cacheBytes/SlabSize, rounded down; it
// must be at least one slab.
func NewManager(geom kv.Geometry, cacheBytes int64) (*Manager, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	n := int(cacheBytes / int64(geom.SlabSize))
	if n < 1 {
		return nil, fmt.Errorf(
			"slab: cache of %d bytes holds no %d-byte slab; raise the cache size to at least one slab (%d bytes) or shrink Geometry.SlabSize",
			cacheBytes, geom.SlabSize, geom.SlabSize)
	}
	classes := make([]classState, geom.NumClasses)
	for c := range classes {
		classes[c].spc = geom.SlotsPerSlab(c)
	}
	return &Manager{
		geom:       geom,
		totalSlabs: n,
		freeSlabs:  n,
		classes:    classes,
	}, nil
}

// GrowBudget adds n slabs to the budget and the free pool (the receiving
// side of a budget transfer).
func (m *Manager) GrowBudget(n int) error {
	if n < 0 {
		return fmt.Errorf("slab: negative budget growth %d", n)
	}
	m.totalSlabs += n
	m.freeSlabs += n
	return nil
}

// ShrinkBudget removes n slabs from the budget; they must all be free (the
// donating side of a budget transfer).
func (m *Manager) ShrinkBudget(n int) error {
	if n < 0 {
		return fmt.Errorf("slab: negative budget shrink %d", n)
	}
	if n > m.freeSlabs {
		return fmt.Errorf("slab: cannot shrink budget by %d, only %d slabs free", n, m.freeSlabs)
	}
	m.totalSlabs -= n
	m.freeSlabs -= n
	return nil
}

// Geometry returns the class geometry.
func (m *Manager) Geometry() kv.Geometry { return m.geom }

// TotalSlabs returns the slab budget.
func (m *Manager) TotalSlabs() int { return m.totalSlabs }

// FreeSlabs returns the number of unassigned slabs.
func (m *Manager) FreeSlabs() int { return m.freeSlabs }

// Slabs returns the number of slabs owned by class c.
func (m *Manager) Slabs(c int) int { return m.classes[c].slabs }

// Used returns the number of occupied slots in class c.
func (m *Manager) Used(c int) int { return m.classes[c].used }

// Capacity returns the total slots of class c (slabs * slots per slab).
func (m *Manager) Capacity(c int) int {
	cs := &m.classes[c]
	return cs.slabs * cs.spc
}

// FreeSlots returns the unoccupied slots in class c.
func (m *Manager) FreeSlots(c int) int {
	cs := &m.classes[c]
	return cs.slabs*cs.spc - cs.used
}

// AllocSlab assigns one free slab to class c. It fails when the free pool is
// empty.
func (m *Manager) AllocSlab(c int) error {
	if m.freeSlabs == 0 {
		return fmt.Errorf("slab: no free slabs for class %d", c)
	}
	m.freeSlabs--
	m.classes[c].slabs++
	return nil
}

// ReleaseSlab returns one slab from class c to the free pool. The class must
// end with enough capacity for its occupied slots — callers evict first.
func (m *Manager) ReleaseSlab(c int) error {
	cs := &m.classes[c]
	if cs.slabs == 0 {
		return fmt.Errorf("slab: class %d owns no slabs", c)
	}
	if cs.used > (cs.slabs-1)*cs.spc {
		return fmt.Errorf("slab: class %d has %d used slots, cannot drop below %d slabs",
			c, cs.used, cs.slabs)
	}
	cs.slabs--
	m.freeSlabs++
	return nil
}

// MoveSlab migrates one slab from class from to class to, counting it in
// Migrations. The donor must have a slab's worth of free slots (its candidate
// segment has been evicted and compacted).
func (m *Manager) MoveSlab(from, to int) error {
	if from == to {
		return fmt.Errorf("slab: move from class %d to itself", from)
	}
	if err := m.ReleaseSlab(from); err != nil {
		return err
	}
	if err := m.AllocSlab(to); err != nil {
		// Unreachable: ReleaseSlab just freed a slab. Restore anyway.
		m.freeSlabs--
		m.classes[from].slabs++
		return err
	}
	m.Migrations++
	return nil
}

// UseSlot marks one slot of class c occupied; it fails when the class is
// full (callers must have allocated a slab or evicted first).
func (m *Manager) UseSlot(c int) error {
	cs := &m.classes[c]
	if cs.used >= cs.slabs*cs.spc {
		return fmt.Errorf("slab: class %d is full (%d slots)", c, m.Capacity(c))
	}
	cs.used++
	return nil
}

// FreeSlot marks one slot of class c unoccupied.
func (m *Manager) FreeSlot(c int) error {
	if m.classes[c].used == 0 {
		return fmt.Errorf("slab: class %d has no used slots", c)
	}
	m.classes[c].used--
	return nil
}

// Snapshot returns the per-class slab counts (index = class).
func (m *Manager) Snapshot() []int {
	out := make([]int, len(m.classes))
	for i, cs := range m.classes {
		out[i] = cs.slabs
	}
	return out
}

// CheckInvariants verifies conservation (slabs sum to the budget) and
// per-class occupancy bounds; tests call it after mutation sequences.
func (m *Manager) CheckInvariants() error {
	sum := m.freeSlabs
	for c, cs := range m.classes {
		sum += cs.slabs
		if cs.used < 0 || cs.used > cs.slabs*cs.spc {
			return fmt.Errorf("slab: class %d used %d outside [0,%d]", c, cs.used, m.Capacity(c))
		}
	}
	if sum != m.totalSlabs {
		return fmt.Errorf("slab: %d slabs accounted, budget %d", sum, m.totalSlabs)
	}
	return nil
}
