package cache

import (
	"fmt"

	"pamakv/internal/penalty"
)

// This file holds the engine surface used by the multi-tenant arbiter
// (package tenant). Under multi-tenant serving each tenant owns its own
// engine(s); the arbiter compares marginal slab utilities across tenants and
// transfers one slab's worth of budget at a time from the tenant losing the
// least to the tenant gaining the most (Memshare's arbitrated pool, priced
// with PAMA's incoming/outgoing slab values).

// TenantValuer is optionally implemented by policies (PAMA) that can price
// slabs for cross-tenant arbitration. All methods are called with the
// engine lock held, like every other Policy hook.
type TenantValuer interface {
	// CheapestOutgoing returns the cheapest candidate slab the cache could
	// give up — its (class, subclass) and the expected penalty lost per
	// window — or ok=false when no class owns a slab.
	CheapestOutgoing() (class, sub int, v float64, ok bool)
	// BestIncoming returns the largest expected penalty saved per window
	// were the cache granted one more slab, over all (class, subclass).
	BestIncoming() float64
	// NoteDonated reports that a slab's worth of (class, sub) was evicted
	// and the slab left the cache, so the policy can roll its outgoing
	// value accumulators exactly as it does for an internal migration.
	NoteDonated(class, sub int)
}

// ArbiterValues returns this engine's marginal slab utilities: incoming is
// the expected penalty saved per window if the engine gained one slab,
// outgoing the expected penalty lost per window if it gave one up, and
// canDonate whether DonateSlab could currently succeed. When the attached
// policy does not implement TenantValuer, a crude window-statistics
// estimate is substituted so mixed-policy fleets still arbitrate.
func (c *Cache) ArbiterValues() (incoming, outgoing float64, canDonate bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tv, ok := c.policy.(TenantValuer); ok {
		incoming = tv.BestIncoming()
		if _, _, v, vok := tv.CheapestOutgoing(); vok {
			outgoing, canDonate = v, true
		}
	} else {
		incoming, outgoing, canDonate = c.fallbackValuesLocked()
	}
	if c.slabs.FreeSlabs() > 0 {
		// A free slab costs nothing to give away.
		outgoing, canDonate = 0, true
	}
	if c.slabs.TotalSlabs() <= 1 {
		// The last slab keeps the engine servable.
		canDonate = false
	}
	return incoming, outgoing, canDonate
}

// fallbackValuesLocked prices slabs for policies without a TenantValuer:
// incoming is the window's miss volume priced at the default unknown
// penalty, outgoing the window's hit volume amortized over the slab budget.
// Both are crude, but they are in the same units as PAMA's values and
// comparable between two fallback tenants.
func (c *Cache) fallbackValuesLocked() (incoming, outgoing float64, canDonate bool) {
	var reqs, misses uint64
	for cl := 0; cl < c.geom.NumClasses; cl++ {
		reqs += c.winReqs[cl]
		misses += c.winMiss[cl]
	}
	incoming = float64(misses) * penalty.DefaultUnknown
	if n := c.slabs.TotalSlabs(); n > 0 {
		outgoing = float64(reqs-misses) * penalty.DefaultUnknown / float64(n)
	}
	_, _, canDonate = c.donationVictimLocked()
	return incoming, outgoing, canDonate
}

// donationVictimLocked picks the (class, sub) to drain when a slab must
// leave the cache and no free slab exists: the policy's cheapest outgoing
// candidate if it prices slabs, else a class that can already release a
// slab for free, else the class with the most slabs (its most populated
// subclass). ok=false when no class owns a releasable slab.
func (c *Cache) donationVictimLocked() (class, sub int, ok bool) {
	if tv, isValuer := c.policy.(TenantValuer); isValuer {
		cl, s, _, vok := tv.CheapestOutgoing()
		return cl, s, vok
	}
	bestC, bestS, bestSlabs := -1, -1, 0
	for cl := 0; cl < c.geom.NumClasses; cl++ {
		n := c.slabs.Slabs(cl)
		if n == 0 {
			continue
		}
		if c.slabs.FreeSlots(cl) >= c.classes[cl].spc {
			return cl, c.largestSub(cl), true
		}
		if n > bestSlabs {
			bestC, bestSlabs = cl, n
		}
	}
	if bestC < 0 {
		return 0, 0, false
	}
	if bestS = c.largestSub(bestC); bestS < 0 {
		// Slabs but no resident items: free slots cover the release.
		bestS = 0
	}
	return bestC, bestS, true
}

// DonateSlab removes one slab from this engine's budget so the arbiter can
// grant it to another tenant: it frees a slab (draining the donation
// victim's, as MigrateSlab does, if none is free) and shrinks the budget by
// one. The engine keeps at least one slab.
func (c *Cache) DonateSlab() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slabs.TotalSlabs() <= 1 {
		return fmt.Errorf("cache: cannot donate the last slab")
	}
	if c.slabs.FreeSlabs() == 0 {
		cl, sub, ok := c.donationVictimLocked()
		if !ok {
			return fmt.Errorf("cache: no class can free a slab")
		}
		if err := c.drainSlabLocked(cl, sub); err != nil {
			return err
		}
		if err := c.slabs.ReleaseSlab(cl); err != nil {
			return err
		}
		if c.arena != nil {
			// The slab's page leaves with it: its memory goes back to the kernel.
			c.arena.unmap(c.compact(cl))
		}
		if tv, isValuer := c.policy.(TenantValuer); isValuer {
			tv.NoteDonated(cl, sub)
		}
	}
	if err := c.slabs.ShrinkBudget(1); err != nil {
		return err
	}
	c.stats.SlabDonations++
	return nil
}

// ReceiveSlab grows this engine's budget by one slab granted by the
// arbiter. The slab lands in the free pool and is claimed by whichever
// class next needs a slot, through the engine's normal growth path, which
// maps its page then.
func (c *Cache) ReceiveSlab() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.slabs.GrowBudget(1)
	c.stats.SlabReceipts++
}
