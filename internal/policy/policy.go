// Package policy implements the slab-allocation schemes PAMA is compared
// against (paper §II, §IV; results/fig_baselines.tsv):
//
//   - Static: the original Memcached — slabs are granted while free memory
//     lasts and never reassigned afterwards; replacement is per-class LRU.
//   - PSA: periodic slab allocation (Carra & Michiardi) — every M misses,
//     move a slab from the class with the lowest request density
//     (requests per slab per window) to the class with the most misses in
//     the window.
//   - LAMA (lama.go): miss-ratio-curve allocation, by hit ratio or by
//     average miss time.
//   - CAMP (camp.go): cost-adaptive multi-queue eviction.
//
// Static and PSA run a single LRU stack per class (no penalty subclasses, no
// segment tracking, no ghost regions) — exactly the machinery their original
// systems had.
package policy

import (
	"math"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

// base provides the no-frills defaults the baselines share.
type base struct{ c *cache.Cache }

func (b *base) SubclassBounds() []float64     { return nil }
func (b *base) Segments() int                 { return 0 }
func (b *base) GhostSegments() int            { return 0 }
func (b *base) Attach(c *cache.Cache)         { b.c = c }
func (b *base) OnHit(*kv.Item, int)           {}
func (b *base) OnMiss(int, int, float64, int) {}
func (b *base) OnInsert(*kv.Item)             {}
func (b *base) OnEvict(*kv.Item)              {}
func (b *base) OnWindow()                     {}

// MakeRoom implements cache.Policy: nothing to do between reallocations —
// the engine replaces within the class (and, like the original Memcached,
// refuses a store into a class that owns no slab).
func (b *base) MakeRoom(int, int) {}

// Static is original Memcached: no reallocation, per-class LRU replacement.
type Static struct{ base }

// NewStatic returns the static policy.
func NewStatic() *Static { return &Static{} }

// Name implements cache.Policy.
func (*Static) Name() string { return "memcached" }

// PSA is periodic slab allocation.
type PSA struct {
	base
	// M is the miss period between relocations (paper §II describes "for
	// every M misses, where M is a predefined constant").
	M uint64

	misses   uint64
	prevReqs []uint64
}

// NewPSA returns PSA with the given relocation period.
func NewPSA(m uint64) *PSA {
	if m == 0 {
		m = 1000
	}
	return &PSA{M: m}
}

// Name implements cache.Policy.
func (*PSA) Name() string { return "psa" }

// Attach implements cache.Policy.
func (p *PSA) Attach(c *cache.Cache) {
	p.base.Attach(c)
	p.prevReqs = make([]uint64, c.NumClasses())
}

// OnWindow implements cache.Policy: remember the finished window's request
// counts so density is never computed from a nearly empty window.
func (p *PSA) OnWindow() {
	for cl := 0; cl < p.c.NumClasses(); cl++ {
		p.prevReqs[cl] = p.c.WindowReqs(cl)
	}
}

// OnMiss implements cache.Policy: count misses and relocate every M of
// them, from the lowest-density class to the class with the most misses in
// the current window.
func (p *PSA) OnMiss(class, _ int, _ float64, _ int) {
	p.misses++
	if p.misses < p.M {
		return
	}
	p.misses = 0
	c := p.c
	if c.FreeSlabs() > 0 {
		return // growth phase: nothing to rebalance yet
	}
	// Destination: most window misses (fall back to the missing class).
	dest, destMisses := class, uint64(0)
	for cl := 0; cl < c.NumClasses(); cl++ {
		if m := c.WindowMisses(cl); m > destMisses {
			dest, destMisses = cl, m
		}
	}
	if dest < 0 {
		return
	}
	// Donor: lowest request density among slab owners, excluding dest.
	// Donors keep one slab so no class is starved into unservability.
	donor, donorDensity := -1, math.Inf(1)
	for cl := 0; cl < c.NumClasses(); cl++ {
		if cl == dest || c.Slabs(cl) < 2 {
			continue
		}
		d := float64(p.prevReqs[cl]+c.WindowReqs(cl)) / float64(c.Slabs(cl))
		if d < donorDensity {
			donor, donorDensity = cl, d
		}
	}
	if donor < 0 {
		return
	}
	_ = c.MigrateSlab(donor, 0, dest) // refused: the allocation stays as it is
}

// Interface conformance checks.
var (
	_ cache.Policy = (*Static)(nil)
	_ cache.Policy = (*PSA)(nil)
)
