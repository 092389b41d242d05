package policy

// SizeAware — after "Lightweight Robust Size Aware Cache Management"
// (Einziger et al., PAPERS.md) — chooses eviction victims by estimated
// frequency per byte rather than recency alone. A small decaying
// count-min sketch tracks access frequency per key hash; when a class
// needs room the policy scores every class tail by freq/slot-size and
// takes memory from the class whose tail buys the least utility per
// byte. Large cold items are evicted ahead of small warm ones even when
// they were touched more recently, which is the failure mode plain LRU
// exhibits on mixed-size traces.

import (
	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

const (
	sketchRows  = 4
	sketchWidth = 2048 // power of two; masks instead of mod
	// sketchDecayEvery halves all counters after this many observations,
	// keeping estimates fresh on shifting workloads (the "robust" part).
	sketchDecayEvery = 1 << 14
)

// SizeAware is the frequency-per-byte eviction baseline.
type SizeAware struct {
	c      *cache.Cache
	sketch [sketchRows][sketchWidth]uint16
	obs    int
}

// NewSizeAware returns the policy.
func NewSizeAware() *SizeAware { return &SizeAware{} }

// Name implements cache.Policy.
func (*SizeAware) Name() string { return "size-aware" }

// SubclassBounds implements cache.Policy: one stack per class.
func (*SizeAware) SubclassBounds() []float64 { return nil }

// Segments implements cache.Policy.
func (*SizeAware) Segments() int { return 0 }

// GhostSegments implements cache.Policy.
func (*SizeAware) GhostSegments() int { return 0 }

// Attach implements cache.Policy.
func (p *SizeAware) Attach(c *cache.Cache) { p.c = c }

// sketchSlot derives row r's counter index from the key hash by remixing
// with a distinct odd constant per row (independent-enough hash functions
// without rehashing the key).
func sketchSlot(h uint64, r int) int {
	h *= 0x9e3779b97f4a7c15 + uint64(r)<<1 // keep the multiplier odd
	return int(h>>48) & (sketchWidth - 1)
}

func (p *SizeAware) observe(h uint64) {
	for r := 0; r < sketchRows; r++ {
		s := &p.sketch[r][sketchSlot(h, r)]
		if *s < ^uint16(0) {
			*s++
		}
	}
	p.obs++
	if p.obs >= sketchDecayEvery {
		p.obs = 0
		for r := range p.sketch {
			for i := range p.sketch[r] {
				p.sketch[r][i] >>= 1
			}
		}
	}
}

// freq is the count-min estimate for a key hash.
func (p *SizeAware) freq(h uint64) uint16 {
	min := ^uint16(0)
	for r := 0; r < sketchRows; r++ {
		if v := p.sketch[r][sketchSlot(h, r)]; v < min {
			min = v
		}
	}
	return min
}

// OnHit implements cache.Policy.
func (p *SizeAware) OnHit(it *kv.Item, _ int) { p.observe(it.Hash) }

// OnInsert implements cache.Policy.
func (p *SizeAware) OnInsert(it *kv.Item) { p.observe(it.Hash) }

// OnMiss implements cache.Policy.
func (*SizeAware) OnMiss(int, int, *kv.Item, int) {}

// OnEvict implements cache.Policy.
func (*SizeAware) OnEvict(*kv.Item) {}

// OnWindow implements cache.Policy.
func (*SizeAware) OnWindow() {}

// MakeRoom implements cache.Policy: score every class tail by estimated
// frequency per slot byte and take memory where that score is lowest.
// Donor classes keep at least two slabs so no class is starved outright.
func (p *SizeAware) MakeRoom(class, _ int) {
	c := p.c
	g := c.Geometry()
	best, bestScore := -1, 0.0
	for cl := 0; cl < c.NumClasses(); cl++ {
		if cl != class && c.Slabs(cl) < 2 {
			continue
		}
		tail := c.SubTail(cl, 0)
		if tail == nil {
			continue
		}
		// +1 so brand-new (never-counted) tails still rank by size.
		score := float64(p.freq(tail.Hash)+1) / float64(g.SlotSize(cl))
		if best < 0 || score < bestScore {
			best, bestScore = cl, score
		}
	}
	if best < 0 || best == class {
		return
	}
	_ = c.MigrateSlab(best, 0, class) // refused: the allocation stays as it is
}

// Interface conformance checks.
var _ cache.Policy = (*SizeAware)(nil)
