// Package core implements PAMA — the Penalty Aware Memory Allocation scheme
// of Ou et al. (ICPP 2015) — as a cache.Policy.
//
// PAMA divides every size class into subclasses by miss-penalty range, runs
// one LRU stack per subclass, and prices the bottom slab-worth of every
// stack (the candidate slab) by the miss penalty its items absorbed in the
// recent past:
//
//	V = Σ_{i=0..m} V_i / 2^(i+1)             (paper Eq. 2)
//
// where V_i sums the penalties of requests that hit the i-th bottom segment
// in the value window (V_0 = candidate segment, higher i = reference
// segments; paper Eq. 1). Symmetrically, each subclass has an incoming value
// computed over its ghost region — the penalties of misses that an extra
// slab would have converted to hits.
//
// On a miss that needs space with memory exhausted, PAMA picks the globally
// cheapest candidate slab. Two guard rails from the paper §III: if the
// requesting subclass's incoming value does not exceed the cheapest outgoing
// value, migration cannot pay for itself and the class replaces internally;
// and if the cheapest candidate belongs to the requesting class, there is
// nothing to migrate — one item is replaced in place.
//
// Setting PenaltyAware to false yields the paper's pre-PAMA reference
// scheme: identical machinery, but a segment's value is its request count
// and penalty subclasses collapse to one.
package core

import (
	"math"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
)

// Config parameterizes PAMA.
type Config struct {
	// M is the number of reference segments blended into a value
	// (paper default 2; Fig. 10 sweeps 0/2/4/8).
	M int
	// PenaltyAware selects PAMA (true) or pre-PAMA (false).
	PenaltyAware bool
	// Bounds are the penalty subclass edges. nil defaults to
	// penalty.SubclassBounds for PAMA and a single subclass for
	// pre-PAMA.
	Bounds []float64
}

// DefaultConfig returns the paper's configuration: m=2, penalty aware, five
// subclasses.
func DefaultConfig() Config {
	return Config{M: 2, PenaltyAware: true, Bounds: penalty.SubclassBounds}
}

// PrePAMAConfig returns the pre-PAMA reference scheme.
func PrePAMAConfig() Config { return Config{M: 2, PenaltyAware: false} }

// PAMA implements cache.Policy.
type PAMA struct {
	cfg Config
	c   *cache.Cache

	nseg int
	// out[class][sub][seg] accumulates segment values in the current
	// window; outPrev holds the previous window. in/inPrev mirror them
	// for ghost (incoming) values.
	out, outPrev [][][]float64
	in, inPrev   [][][]float64

	// dec counts MakeRoom's decisions; the engine counts the slab moves
	// and evictions that carry them out.
	dec cache.PolicyDecisions
}

// New returns a PAMA policy with the given configuration.
func New(cfg Config) *PAMA {
	if cfg.M < 0 {
		cfg.M = 0
	}
	if cfg.Bounds == nil && cfg.PenaltyAware {
		cfg.Bounds = penalty.SubclassBounds
	}
	return &PAMA{cfg: cfg, nseg: cfg.M + 1}
}

// Name implements cache.Policy.
func (p *PAMA) Name() string {
	if p.cfg.PenaltyAware {
		return "pama"
	}
	return "pre-pama"
}

// SubclassBounds implements cache.Policy.
func (p *PAMA) SubclassBounds() []float64 { return p.cfg.Bounds }

// Segments implements cache.Policy.
func (p *PAMA) Segments() int { return p.nseg }

// GhostSegments implements cache.Policy.
func (p *PAMA) GhostSegments() int { return p.nseg }

// Attach implements cache.Policy.
func (p *PAMA) Attach(c *cache.Cache) {
	p.c = c
	nc := c.NumClasses()
	ns := c.NumSubclasses()
	alloc := func() [][][]float64 {
		a := make([][][]float64, nc)
		for ci := range a {
			a[ci] = make([][]float64, ns)
			for si := range a[ci] {
				a[ci][si] = make([]float64, p.nseg)
			}
		}
		return a
	}
	p.out, p.outPrev = alloc(), alloc()
	p.in, p.inPrev = alloc(), alloc()
}

// weight is the value contribution of one request: its miss penalty under
// PAMA, one request under pre-PAMA.
func (p *PAMA) weight(pen float64) float64 {
	if p.cfg.PenaltyAware {
		return pen
	}
	return 1
}

// OnHit implements cache.Policy: hits on tracked bottom segments accrue
// outgoing value (Eq. 1).
func (p *PAMA) OnHit(it *kv.Item, seg int) {
	if seg >= 0 && seg < p.nseg {
		p.out[it.Class][it.Sub][seg] += p.weight(it.Penalty)
	}
}

// OnMiss implements cache.Policy: ghost-region hits accrue incoming value.
func (p *PAMA) OnMiss(class, sub int, ghostPen float64, ghostSeg int) {
	if ghostSeg >= 0 && ghostSeg < p.nseg {
		p.in[class][sub][ghostSeg] += p.weight(ghostPen)
	}
}

// OnInsert implements cache.Policy.
func (p *PAMA) OnInsert(*kv.Item) {}

// OnEvict implements cache.Policy.
func (p *PAMA) OnEvict(*kv.Item) {}

// OnWindow implements cache.Policy: the finished window becomes the
// prediction baseline and accumulation restarts (values always blend the
// previous full window with the current partial one, so decisions early in
// a window are not starved of signal).
func (p *PAMA) OnWindow() {
	swap := func(cur, prev [][][]float64) {
		for ci := range cur {
			for si := range cur[ci] {
				copy(prev[ci][si], cur[ci][si])
				for k := range cur[ci][si] {
					cur[ci][si][k] = 0
				}
			}
		}
	}
	swap(p.out, p.outPrev)
	swap(p.in, p.inPrev)
}

// blend applies Eq. 2's geometric weights over previous + current window
// accumulations.
func blend(cur, prev []float64) float64 {
	v, w := 0.0, 0.5
	for i := range cur {
		v += (cur[i] + prev[i]) * w
		w /= 2
	}
	return v
}

// OutgoingValue returns the candidate slab value of (class, sub): the
// service-time loss per window if its candidate slab were taken away.
func (p *PAMA) OutgoingValue(class, sub int) float64 {
	return blend(p.out[class][sub], p.outPrev[class][sub])
}

// IncomingValue returns the value of granting (class, sub) one more slab:
// the service-time saving per window implied by its ghost region.
func (p *PAMA) IncomingValue(class, sub int) float64 {
	return blend(p.in[class][sub], p.inPrev[class][sub])
}

// ReportDecisions implements cache.DecisionReporter for the engine's
// introspection surface (called with the engine lock held).
func (p *PAMA) ReportDecisions() cache.PolicyDecisions { return p.dec }

// findVictim returns the cheapest candidate slab a donor class could give
// up, trying four tiers in order and answering from the first that has one:
//
//  1. single-subclass candidates of donors that keep a slab;
//  2. single-subclass candidates of any donor;
//  3. whole-class candidates of donors that keep a slab;
//  4. whole-class candidates of any donor.
//
// Donors keep a slab when they own at least two, so no class is starved into
// unservability while another could pay (every production rebalancer has
// this guard). The requesting class is always eligible: its "donation" is an
// in-place replacement. A class sitting on a full slab's worth of free slots
// donates at zero cost. A subclass is a single-subclass candidate only when
// its own candidate segment (plus the class's free slots) covers one slab,
// so the donation spills no evictions into sibling subclasses whose items
// were never priced into its value. When no stack of any class covers a
// slab, a whole class is priced as the sum of its subclasses' outgoing
// values and drained from its largest stack. bestC < 0 only when no class
// owns a slab.
func (p *PAMA) findVictim(class int) (bestC, bestS int, bestVal float64) {
	for _, whole := range [2]bool{false, true} {
		for _, keep := range [2]bool{true, false} {
			if bestC, bestS, bestVal = p.cheapestDonor(class, keep, whole); bestC >= 0 {
				return bestC, bestS, bestVal
			}
		}
	}
	return bestC, bestS, bestVal
}

// cheapestDonor is one tier of findVictim: the cheapest single-subclass (or,
// with whole, whole-class) candidate among the classes owning a slab — with
// keep, only those keeping one after the donation.
func (p *PAMA) cheapestDonor(class int, keep, whole bool) (bestC, bestS int, bestVal float64) {
	c := p.c
	bestC, bestS, bestVal = -1, -1, math.Inf(1)
	for d := 0; d < c.NumClasses(); d++ {
		if c.Slabs(d) == 0 || (keep && d != class && c.Slabs(d) < 2) {
			continue
		}
		if whole {
			var sum float64
			for s := 0; s < c.NumSubclasses(); s++ {
				sum += p.OutgoingValue(d, s)
			}
			if sum < bestVal {
				bestC, bestS, bestVal = d, p.largestSub(d), sum
			}
			continue
		}
		need := c.SlotsPerSlab(d) - c.FreeSlots(d)
		if need <= 0 {
			if bestVal > 0 || bestC < 0 {
				bestC, bestS, bestVal = d, p.largestSub(d), 0
			}
			continue
		}
		for s := 0; s < c.NumSubclasses(); s++ {
			if c.SubLen(d, s) < need {
				continue
			}
			if v := p.OutgoingValue(d, s); v < bestVal {
				bestC, bestS, bestVal = d, s, v
			}
		}
	}
	return bestC, bestS, bestVal
}

// shiftOut slides (class, sub)'s outgoing accumulators one segment down
// after its candidate slab was evicted: the first reference segment becomes
// the new candidate, inheriting its history (the reason reference segments
// exist, paper §III).
func (p *PAMA) shiftOut(class, sub int) {
	shiftDown(p.out[class][sub])
	shiftDown(p.outPrev[class][sub])
}

// shiftIn slides (class, sub)'s incoming accumulators one segment down
// after the subclass received a slab: the receiving segment's demand is now
// servable, and the next ghost segment moves up.
func (p *PAMA) shiftIn(class, sub int) {
	shiftDown(p.in[class][sub])
	shiftDown(p.inPrev[class][sub])
}

func shiftDown(a []float64) {
	copy(a, a[1:])
	a[len(a)-1] = 0
}

// migrate performs the slab move with value-history maintenance.
func (p *PAMA) migrate(fromC, fromS, toC, toS int) bool {
	if err := p.c.MigrateSlab(fromC, fromS, toC); err != nil {
		return false
	}
	p.shiftOut(fromC, fromS)
	p.shiftIn(toC, toS)
	return true
}

// MakeRoom implements cache.Policy.
func (p *PAMA) MakeRoom(class, sub int) {
	bestC, bestS, bestVal := p.findVictim(class)
	switch {
	case bestC < 0:
		// No class owns a slab: the engine refuses the store.
	case p.c.Slabs(class) == 0:
		// The requesting class cannot replace in place; it must receive a
		// slab no matter the price (bestC is another class: it owns one).
		if p.migrate(bestC, bestS, class, sub) {
			p.dec.Forced++
		}
	case bestC == class:
		// Paper scenario 2: cheapest candidate is local — replace one
		// item, no cross-class migration.
		p.dec.SameClass++
		p.evictWithin(class)
	case p.IncomingValue(class, sub) <= bestVal:
		// Paper scenario 1: the grant would be worth less than the
		// donor's loss — keep allocations, replace in place.
		p.dec.NotWorthIt++
		p.evictWithin(class)
	case !p.migrate(bestC, bestS, class, sub):
		p.evictWithin(class)
	}
}

// evictWithin replaces one item inside class, preferring the subclass with
// the cheapest candidate segment.
func (p *PAMA) evictWithin(class int) {
	c := p.c
	bestS, bestVal := -1, math.Inf(1)
	for s := 0; s < c.NumSubclasses(); s++ {
		if c.SubLen(class, s) == 0 {
			continue
		}
		if v := p.OutgoingValue(class, s); v < bestVal {
			bestS, bestVal = s, v
		}
	}
	if bestS < 0 {
		return
	}
	c.EvictBottom(class, bestS)
}

// largestSub returns the most populated subclass of class: the stack a
// donor draining its free space, or a whole-class donor, starts from.
func (p *PAMA) largestSub(class int) int {
	best, bestN := 0, -1
	for s := 0; s < p.c.NumSubclasses(); s++ {
		if n := p.c.SubLen(class, s); n > bestN {
			best, bestN = s, n
		}
	}
	return best
}

// ---- Cross-tenant arbitration (cache.TenantValuer) ----
// The tenant arbiter prices slabs across engines with the same accumulators
// MakeRoom uses within one engine: a tenant's marginal gain is its best
// incoming-slab value, its marginal loss the cheapest candidate slab it
// could give up. Called with the engine lock held, like every hook.

// CheapestOutgoing implements cache.TenantValuer: the candidate slab
// MakeRoom would take for a class that owns none — small tenants must be
// priceable too, or they could never fund a starving neighbor.
func (p *PAMA) CheapestOutgoing() (class, sub int, v float64, ok bool) {
	class, sub, v = p.findVictim(-1)
	return class, sub, v, class >= 0
}

// BestIncoming implements cache.TenantValuer: the largest incoming-slab
// value over all (class, subclass) ghost regions.
func (p *PAMA) BestIncoming() float64 {
	var best float64
	for cl := 0; cl < p.c.NumClasses(); cl++ {
		for s := 0; s < p.c.NumSubclasses(); s++ {
			if v := p.IncomingValue(cl, s); v > best {
				best = v
			}
		}
	}
	return best
}

// NoteDonated implements cache.TenantValuer: the donated slab's candidate
// history rolls down exactly as after an internal migration.
func (p *PAMA) NoteDonated(class, sub int) { p.shiftOut(class, sub) }

var (
	_ cache.Policy           = (*PAMA)(nil)
	_ cache.DecisionReporter = (*PAMA)(nil)
	_ cache.TenantValuer     = (*PAMA)(nil)
)
