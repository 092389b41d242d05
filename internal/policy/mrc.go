package policy

import (
	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

// MRCObjective selects what the MRC policy optimizes.
type MRCObjective int

const (
	// ObjectiveMissRatio equalizes marginal hit gain (LAMA's hit-ratio
	// target).
	ObjectiveMissRatio MRCObjective = iota
	// ObjectiveAvgTime weights marginal hits by the class's *average*
	// miss time (LAMA's average-request-time target). This is exactly
	// the formulation the paper critiques in §II: averages blur the
	// three-decade per-item penalty spread that PAMA exploits.
	ObjectiveAvgTime
)

// MRC is a miss-ratio-curve-guided allocator in the spirit of LAMA (Hu et
// al., USENIX ATC 2015, discussed in the paper's §II). The original builds
// full per-class miss ratio curves and solves the allocation by dynamic
// programming; this implementation hill-climbs on the curves' endpoints —
// each class's marginal gain (hits its next slab would add, measured on the
// ghost region's receiving segment) against its marginal loss (hits its
// last slab currently provides, measured on the bottom stack segment) —
// which converges to the same local optimum for the concave MRCs cache
// workloads exhibit, without the curve-tracking machinery. DESIGN.md
// records the substitution.
type MRC struct {
	c         *cache.Cache
	objective MRCObjective
	// MaxMovesPerWindow bounds reallocation speed (hill-climb step).
	MaxMovesPerWindow int

	gain, loss []float64 // marginal hit counts, current window
	sumPen     []float64 // penalty sum of observed misses per class
	nPen       []uint64  // miss count per class
}

// NewMRC returns the policy with the given objective.
func NewMRC(obj MRCObjective) *MRC {
	return &MRC{objective: obj, MaxMovesPerWindow: 4}
}

// Name implements cache.Policy.
func (m *MRC) Name() string {
	if m.objective == ObjectiveAvgTime {
		return "mrc-time"
	}
	return "mrc-hit"
}

// SubclassBounds implements cache.Policy: one stack per class, like LAMA.
func (m *MRC) SubclassBounds() []float64 { return nil }

// Segments implements cache.Policy: only the bottom (marginal) segment is
// priced.
func (m *MRC) Segments() int { return 1 }

// GhostSegments implements cache.Policy: only the receiving segment is
// needed for marginal gain.
func (m *MRC) GhostSegments() int { return 1 }

// Attach implements cache.Policy.
func (m *MRC) Attach(c *cache.Cache) {
	m.c = c
	nc := c.NumClasses()
	m.gain = make([]float64, nc)
	m.loss = make([]float64, nc)
	m.sumPen = make([]float64, nc)
	m.nPen = make([]uint64, nc)
}

// OnHit implements cache.Policy: bottom-segment hits are the marginal loss.
func (m *MRC) OnHit(it *kv.Item, seg int) {
	if seg == 0 {
		m.loss[it.Class]++
	}
}

// OnMiss implements cache.Policy: receiving-segment ghost hits are the
// marginal gain; every classed miss updates the class's average miss time.
func (m *MRC) OnMiss(class, _ int, ghost *kv.Item, ghostSeg int) {
	if ghost != nil && ghostSeg == 0 {
		m.gain[ghost.Class]++
	}
	if class >= 0 && ghost != nil {
		m.sumPen[class] += ghost.Penalty
		m.nPen[class]++
	}
}

// OnInsert implements cache.Policy; average miss times also learn from the
// penalties of items entering the class.
func (m *MRC) OnInsert(it *kv.Item) {
	m.sumPen[it.Class] += it.Penalty
	m.nPen[it.Class]++
}

// OnEvict implements cache.Policy.
func (m *MRC) OnEvict(*kv.Item) {}

// avgPen returns the class's average miss time, defaulting to a neutral
// weight before any observation.
func (m *MRC) avgPen(class int) float64 {
	if m.objective == ObjectiveMissRatio || m.nPen[class] == 0 {
		return 1
	}
	return m.sumPen[class] / float64(m.nPen[class])
}

// OnWindow implements cache.Policy: one hill-climb step per window — move
// slabs from the class whose last slab earns least to the class whose next
// slab would earn most, while the trade is profitable.
func (m *MRC) OnWindow() {
	c := m.c
	if c.FreeSlabs() > 0 {
		m.reset()
		return
	}
	for move := 0; move < m.MaxMovesPerWindow; move++ {
		best, bestGain := -1, 0.0
		worst, worstLoss := -1, 0.0
		for cl := 0; cl < c.NumClasses(); cl++ {
			g := m.gain[cl] * m.avgPen(cl)
			if g > bestGain {
				best, bestGain = cl, g
			}
			if c.Slabs(cl) < 2 {
				continue // donors keep one slab
			}
			l := m.loss[cl] * m.avgPen(cl)
			if worst < 0 || l < worstLoss {
				worst, worstLoss = cl, l
			}
		}
		if best < 0 || worst < 0 || best == worst || bestGain <= worstLoss {
			break
		}
		if err := c.MigrateSlab(worst, 0, best); err != nil {
			break
		}
		// The moved slab satisfied (part of) the gain and removed the
		// loss signal; damp both so one window's spike cannot drain a
		// donor.
		m.gain[best] /= 2
		m.loss[worst] = 0
	}
	m.reset()
}

func (m *MRC) reset() {
	for i := range m.gain {
		m.gain[i] = 0
		m.loss[i] = 0
	}
}

// MakeRoom implements cache.Policy: reallocation is periodic; in between,
// the engine replaces within the class.
func (m *MRC) MakeRoom(int, int) {}

var _ cache.Policy = (*MRC)(nil)
