package cache

import (
	"fmt"

	"pamakv/internal/kv"
)

// Value memory. When StoreValues is on, every resident item's Value is one
// slot of its class: a buffer whose capacity is exactly geom.SlotSize(class).
// A slot that loses its item — eviction into a ghost, delete, expiry,
// replacement, flush — goes onto its class's free stack (class.vfree), and
// the next store into the class takes it back, so a steady-state
// SET/fill/evict cycle allocates no value memory and the collector never
// sees a value die.
//
// The stacks are owned by the slab accounting, not by the items:
//
//   - len(vfree) never exceeds slabs.FreeSlots(class). Resident values plus
//     stacked buffers are therefore at most the class's slot capacity, and the
//     engine's value memory is bounded by what slab.Manager says it owns.
//   - When a slab leaves a class (MigrateSlab, DonateSlab) the stack is
//     trimmed back under the new FreeSlots; the dropped buffers are the
//     departing slab's bytes, returned to the Go heap for the receiving class
//     to re-carve at its own slot size.
//
// storeValue and releaseValue are the only two places a value buffer changes
// hands; besides them only Delta (in-place rewrite) and the stale buffer's
// private copy (stale.go) write Item.Value.

// storeValue copies value into an empty slot of class cl and hands the slot
// to it: the top of the class's free stack, or a newly carved slot while the
// class is still growing into its slabs. The caller has already taken the
// slot in the slab accounting.
func (c *Cache) storeValue(it *kv.Item, cl int, value []byte) {
	k := &c.classes[cl]
	var v []byte
	if n := len(k.vfree); n > 0 {
		v = k.vfree[n-1]
		k.vfree[n-1] = nil
		k.vfree = k.vfree[:n-1]
	} else {
		v = make([]byte, 0, k.slot)
	}
	it.Value = append(v, value...)
}

// releaseValue detaches it's value and returns the slot to its class's free
// stack. The caller has already freed the item's slot in the slab accounting.
// A buffer an oversized append regrew is not a slot and is left to the
// collector.
func (c *Cache) releaseValue(it *kv.Item) {
	v := it.Value
	if v == nil {
		return
	}
	it.Value = nil
	k := &c.classes[it.Class]
	if cap(v) == k.slot && len(k.vfree) < c.slabs.FreeSlots(int(it.Class)) {
		k.vfree = append(k.vfree, v[:0])
	}
}

// trimValues drops stacked slots of class cl beyond its free-slot count; it
// runs whenever a slab leaves the class.
func (c *Cache) trimValues(cl int) {
	k := &c.classes[cl]
	if n := c.slabs.FreeSlots(cl); len(k.vfree) > n {
		clear(k.vfree[n:])
		k.vfree = k.vfree[:n]
	}
}

// checkValuesLocked verifies the stacks' bound and uniform capacity, and that
// no stacked slot is still some resident item's value.
func (c *Cache) checkValuesLocked() error {
	stacked := make(map[*byte]int)
	for ci := range c.classes {
		k := &c.classes[ci]
		if len(k.vfree) > c.slabs.FreeSlots(ci) {
			return fmt.Errorf("cache: class %d stacks %d value slots, slab accounting has %d free",
				ci, len(k.vfree), c.slabs.FreeSlots(ci))
		}
		for _, v := range k.vfree {
			if len(v) != 0 || cap(v) != k.slot {
				return fmt.Errorf("cache: class %d stacks a buffer of len %d cap %d, slot size is %d",
					ci, len(v), cap(v), k.slot)
			}
			p := &v[:1][0]
			if prev, dup := stacked[p]; dup {
				return fmt.Errorf("cache: one value slot is stacked twice (classes %d and %d)", prev, ci)
			}
			stacked[p] = ci
		}
	}
	if len(stacked) == 0 {
		return nil
	}
	var err error
	c.index.Range(func(it *kv.Item) bool {
		if cap(it.Value) == 0 {
			return true
		}
		if ci, dup := stacked[&it.Value[:1][0]]; dup {
			err = fmt.Errorf("cache: resident %q holds a value slot that is also on class %d's free stack", it.Key, ci)
			return false
		}
		return true
	})
	return err
}
