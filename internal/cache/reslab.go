package cache

// Live re-slabbing: applying a new slab-class geometry to a running cache
// without losing or corrupting a single item.
//
// The engine runs two "eras" during a transition. The cache's primary
// fields (geom, slabs, classes, holes) become the *target* era the moment
// BeginReslab succeeds; the outgoing geometry's structures move wholesale
// into an oldEra value. The shared hash index spans both eras — a lookup
// never misses because of a transition — and an item's Gen tag says which
// era's class indices its Class/Sub fields refer to. Every operation pumps
// a bounded slice of migration work (tick → reslabStepLocked), draining the
// outgoing era MRU-first, so the transition finishes in O(items/StepItems)
// operations with no stop-the-world phase. Slab budget moves between the
// two slab managers one fully-freed slab at a time; the sum is invariant
// (CheckInvariants enforces it).
//
// During a transition the policy is quiesced: its per-class state describes
// the outgoing geometry, so the engine suppresses every hook and handles
// memory pressure itself by draining the outgoing era. finishReslabLocked
// re-Attaches the policy, which rebuilds its state for the new class count
// (all policies' Attach methods are re-entrant by contract).
//
// See DESIGN.md §12 for the full safety argument.

import (
	"errors"
	"fmt"

	"pamakv/internal/kv"
	"pamakv/internal/segment"
	"pamakv/internal/slab"
)

// ErrReslabActive reports a BeginReslab while a transition is running.
var ErrReslabActive = errors.New("cache: re-slab transition already active")

// oldEra is the outgoing side of a live re-slab transition. Its trackers
// and ghost regions are torn down at Begin (ghost class indices would be
// meaningless under the new geometry); only plain LRU lists and slab
// accounting remain while it drains.
type oldEra struct {
	geom    kv.Geometry
	mgr     *slab.Manager
	classes []class
	holes   []int64
	items   int // residents remaining in this era
	drain   int // lowest class that may still hold items
}

// eraRef locates the structures owning one resident item.
type eraRef struct {
	classes []class
	mgr     *slab.Manager
	holes   []int64
	geom    kv.Geometry
	old     bool
}

// eraFor returns the era owning it. Outside a transition everything is the
// primary era; inside one, the Gen tag decides.
func (c *Cache) eraFor(it *kv.Item) eraRef {
	if c.old != nil && it.Gen != c.gen {
		return eraRef{classes: c.old.classes, mgr: c.old.mgr, holes: c.old.holes, geom: c.old.geom, old: true}
	}
	return eraRef{classes: c.classes, mgr: c.slabs, holes: c.holes, geom: c.geom}
}

// touchResident moves a hit item to its stack's MRU end and returns the
// tracked segment (-1 when untracked) plus the class index to attribute the
// hit under — old-era items are attributed to the target-era class their
// size maps to, so window statistics stay dimensioned for one geometry.
func (c *Cache) touchResident(it *kv.Item) (seg, acl int) {
	e := c.eraFor(it)
	s := &e.classes[it.Class].subs[it.Sub]
	seg = -1
	if s.tr != nil {
		seg = s.tr.Touch(it)
	} else {
		s.list.MoveToFront(it)
	}
	acl = it.Class
	if e.old {
		if acl = c.geom.ClassFor(it.Size); acl < 0 {
			acl = c.geom.NumClasses - 1
		}
	}
	return seg, acl
}

// ---- Policy quiesce wrappers ----
// During a transition the policy's per-class state belongs to the outgoing
// geometry; every hook is suppressed until finishReslabLocked re-Attaches.

func (c *Cache) polOnHit(it *kv.Item, seg int) {
	if c.old == nil {
		c.policy.OnHit(it, seg)
	}
}

func (c *Cache) polOnMiss(class, sub int, ghost *kv.Item, gseg int) {
	if c.old == nil {
		c.policy.OnMiss(class, sub, ghost, gseg)
	}
}

func (c *Cache) polOnInsert(it *kv.Item) {
	if c.old == nil {
		c.policy.OnInsert(it)
	}
}

func (c *Cache) polOnEvict(it *kv.Item) {
	if c.old == nil {
		c.policy.OnEvict(it)
	}
}

// RemovalObserver is optionally implemented by policies that mirror
// resident items in their own structures (policy.CAMP). OnRemove fires,
// with the engine lock held, when a resident item leaves the cache by any
// path that is not an eviction already reported through OnEvict: explicit
// delete, TTL expiry, replacement by a new store, or flush.
type RemovalObserver interface {
	OnRemove(it *kv.Item)
}

func (c *Cache) polOnRemove(it *kv.Item) {
	if c.old != nil {
		return
	}
	if ro, ok := c.policy.(RemovalObserver); ok {
		ro.OnRemove(it)
	}
}

// ---- Transition control ----

// BeginReslab starts a live transition to a new geometry. The slab size
// must match (slabs are physical); an equal geometry is a no-op. Fails if a
// transition is already running.
func (c *Cache) BeginReslab(target kv.Geometry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.beginReslabLocked(target)
}

// ReslabActive reports whether a transition is in progress.
func (c *Cache) ReslabActive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.old != nil
}

// ReslabStep manually pumps up to maxItems of migration work (tests; the
// engine also pumps on every operation). done reports that no transition
// remains active.
func (c *Cache) ReslabStep(maxItems int) (migrated int, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reslabStepLocked(maxItems)
}

func (c *Cache) beginReslabLocked(target kv.Geometry) error {
	if c.old != nil {
		return ErrReslabActive
	}
	// Deferred accesses reference items by the class/sub indices the era
	// swap is about to redefine; apply them all before any structure moves.
	c.drainLocked()
	if err := target.Validate(); err != nil {
		return err
	}
	if target.SlabSize != c.geom.SlabSize {
		return fmt.Errorf("cache: re-slab cannot change slab size (%d -> %d)",
			c.geom.SlabSize, target.SlabSize)
	}
	if target.Equal(c.geom) {
		return nil
	}

	// Ghost entries carry class/subclass indices of the outgoing geometry;
	// drop them all rather than translate (they are advisory memory).
	for ci := range c.classes {
		for si := range c.classes[ci].subs {
			s := &c.classes[ci].subs[si]
			if s.gcap == 0 {
				continue
			}
			for g := s.ghost.PopFront(); g != nil; g = s.ghost.PopFront() {
				s.gring.Remove(g)
				c.gindex.Remove(g)
				c.releaseRaw(g)
			}
			s.gcap = 0
			s.gring = nil
		}
	}
	items := 0
	for ci := range c.classes {
		for si := range c.classes[ci].subs {
			s := &c.classes[ci].subs[si]
			items += s.list.Len()
			// The outgoing era only ever removes items (from arbitrary
			// positions); trackers are rank structures for policy decisions
			// the quiesced policy will not make. Drop them.
			s.tr = nil
		}
		// Its free value slots are sized for the outgoing geometry: retire
		// them with the era (see values.go).
		c.classes[ci].vfree = nil
	}

	c.old = &oldEra{
		geom:    c.geom,
		mgr:     c.slabs,
		classes: c.classes,
		holes:   c.holes,
		items:   items,
	}
	c.gen++
	c.geom = target
	mgr, err := slab.NewEmpty(target)
	if err != nil {
		// Unreachable: target validated above.
		c.restoreFromOldLocked()
		return err
	}
	c.slabs = mgr
	nsub := len(c.bounds)
	if nsub == 0 {
		nsub = 1
	}
	// Target-era stacks run without segment trackers until the transition
	// finishes (migrated items enter at the LRU end, which the exact
	// tracker's rank order cannot absorb); ghost regions work immediately.
	c.classes = buildClasses(target, nsub, c.policy.Segments(), c.policy.GhostSegments(), c.cfg.Tracker, false)
	c.holes = make([]int64, target.NumClasses)
	c.resetAttribution(nsub)
	c.stats.Reslabs++

	// Unowned budget transfers immediately.
	c.harvestOldLocked()
	if c.old.items == 0 {
		c.finishReslabLocked()
	}
	return nil
}

// restoreFromOldLocked rolls the primary fields back (only reachable on an
// internal error between era swap and completion of Begin).
func (c *Cache) restoreFromOldLocked() {
	o := c.old
	c.geom, c.slabs, c.classes, c.holes = o.geom, o.mgr, o.classes, o.holes
	c.old = nil
	c.gen--
}

// reslabStepLocked migrates up to maxItems residents from the outgoing era
// into the target era, evicting any that cannot be placed, then finishes
// the transition when the outgoing era is empty.
func (c *Cache) reslabStepLocked(maxItems int) (migrated int, done bool) {
	o := c.old
	if o == nil {
		return 0, true
	}
	for migrated < maxItems && o.items > 0 {
		it := o.take(true)
		if it == nil {
			break
		}
		o.holes[it.Class] -= int64(o.geom.SlotSize(it.Class) - it.Size)
		_ = o.mgr.FreeSlot(it.Class)
		o.items--
		migrated++
		if c.expired(it) {
			c.pushStaleLocked(it)
			c.index.Remove(it)
			c.stats.Expired++
			c.release(it)
			continue
		}
		if !c.reslabPlaceLocked(it) {
			// The target era has no room for this item right now: evict it
			// honestly rather than stall the transition. No ghost entry —
			// ghosts describe target-era stacks this item never joined.
			c.pushStaleLocked(it)
			c.index.Remove(it)
			c.stats.Evictions++
			c.release(it)
		}
	}
	c.harvestOldLocked()
	if o.items == 0 {
		c.finishReslabLocked()
		return migrated, true
	}
	return migrated, false
}

// reslabPlaceLocked re-slots one migrating item into the target era,
// reporting success. On success the item keeps its identity (key, value
// bytes, CAS, penalty, expiry) and lands at the LRU end of its new stack —
// within one donor stack MRU items migrate first, so relative recency among
// migrated items is preserved at the eviction tail.
func (c *Cache) reslabPlaceLocked(it *kv.Item) bool {
	cl := c.geom.ClassFor(it.Size)
	if cl < 0 {
		return false
	}
	if c.slabs.FreeSlots(cl) == 0 {
		if c.slabs.FreeSlabs() == 0 {
			c.harvestOldLocked()
		}
		if c.slabs.FreeSlabs() == 0 {
			return false
		}
		if c.slabs.AllocSlab(cl) != nil {
			return false
		}
	}
	_ = c.slabs.UseSlot(cl)
	it.Class = cl
	it.Gen = c.gen
	if it.Value != nil {
		// The value leaves its outgoing-era slot for one of its new class.
		c.storeValue(it, cl, it.Value)
	}
	c.holes[cl] += int64(c.geom.SlotSize(cl) - it.Size)
	c.classes[cl].subs[it.Sub].list.PushBack(it)
	c.stats.ReslabMoved++
	return true
}

// take removes and returns one resident from the outgoing era — the MRU
// item (front=true) or LRU item of the lowest class still holding any.
func (o *oldEra) take(front bool) *kv.Item {
	for ; o.drain < len(o.classes); o.drain++ {
		for si := range o.classes[o.drain].subs {
			s := &o.classes[o.drain].subs[si]
			var it *kv.Item
			if front {
				it = s.list.PopFront()
			} else {
				it = s.list.PopBack()
			}
			if it != nil {
				return it
			}
		}
	}
	return nil
}

// harvestOldLocked releases every fully-freed outgoing slab and transfers
// the outgoing era's whole free pool to the target era's budget.
func (c *Cache) harvestOldLocked() {
	o := c.old
	if o == nil {
		return
	}
	for ci := range o.classes {
		spc := o.geom.SlotsPerSlab(ci)
		for o.mgr.Slabs(ci) > 0 && o.mgr.FreeSlots(ci) >= spc {
			if o.mgr.ReleaseSlab(ci) != nil {
				break
			}
		}
	}
	if n := o.mgr.FreeSlabs(); n > 0 {
		_ = o.mgr.ShrinkBudget(n)
		_ = c.slabs.GrowBudget(n)
	}
}

// reclaimOldForSpaceLocked evicts outgoing-era residents (LRU-first) until
// at least one slab's budget has moved to the target era, or the outgoing
// era is empty. Called when a store needs room mid-transition.
func (c *Cache) reclaimOldForSpaceLocked() {
	o := c.old
	for o != nil && o.items > 0 && c.slabs.FreeSlabs() == 0 {
		it := o.take(false)
		if it == nil {
			break
		}
		o.holes[it.Class] -= int64(o.geom.SlotSize(it.Class) - it.Size)
		_ = o.mgr.FreeSlot(it.Class)
		o.items--
		c.pushStaleLocked(it)
		c.index.Remove(it)
		c.stats.Evictions++
		c.stats.FallbackEvicts++
		c.release(it)
		c.harvestOldLocked()
	}
	if o != nil && o.items == 0 {
		c.harvestOldLocked()
		c.finishReslabLocked()
	}
}

// finishReslabLocked completes the transition: the outgoing era must be
// empty. Remaining budget transfers, segment trackers are rebuilt over the
// (now fully migrated) target stacks, and the policy is re-Attached so it
// rebuilds its per-class state for the new geometry.
func (c *Cache) finishReslabLocked() {
	o := c.old
	if o == nil {
		return
	}
	c.harvestOldLocked()
	c.old = nil
	if nseg := c.policy.Segments(); nseg > 0 {
		for ci := range c.classes {
			cl := &c.classes[ci]
			for si := range cl.subs {
				s := &cl.subs[si]
				if s.tr != nil {
					continue
				}
				switch c.cfg.Tracker {
				case TrackerBloom:
					s.tr = segment.NewBloom(&s.list, cl.spc, nseg)
				default:
					s.tr = segment.NewExact(&s.list, cl.spc, nseg)
				}
				// Register existing items bottom-up — the same order the
				// exact tracker's own compaction uses, so ranks are exact;
				// a Rollover seeds the Bloom variant's segment snapshot.
				s.list.AscendFromBack(func(it *kv.Item) bool {
					s.tr.Insert(it)
					return true
				})
				s.tr.Rollover()
			}
		}
	}
	c.policy.Attach(c)
}

// ---- Policy-facing primitives (engine lock held) ----

// EvictKey evicts the resident item holding key with full eviction
// bookkeeping (stale push, stats, OnEvict, ghost entry), reporting whether
// an item was evicted. Items still in the outgoing era of a transition are
// not policy-visible and are left alone.
func (c *Cache) EvictKey(key string) bool {
	h := kv.HashString(key)
	it := c.index.Get(h, key)
	if it == nil {
		return false
	}
	if c.old != nil && it.Gen != c.gen {
		return false
	}
	c.evictResidentLocked(it, &c.classes[it.Class].subs[it.Sub])
	return true
}

// RangeItems iterates all resident items (both eras). Policies use it to
// rebuild mirrors in Attach; the callback must not mutate engine state and
// must not retain items.
func (c *Cache) RangeItems(fn func(it *kv.Item) bool) {
	c.index.Range(fn)
}

// ---- Holes gauges ----

// BytesHoles returns the current era's per-class internal fragmentation in
// bytes (slot capacity held by resident items but unused).
func (c *Cache) BytesHoles() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.holes...)
}

// HolesTotal returns total bytes lost to holes across both eras.
func (c *Cache) HolesTotal() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, h := range c.holes {
		t += h
	}
	if c.old != nil {
		for _, h := range c.old.holes {
			t += h
		}
	}
	return t
}
