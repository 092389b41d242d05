package policy

import (
	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/mrc"
)

// MRCObjective selects what LAMA optimizes.
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

// LAMA reproduces the locality-aware memory allocation of Hu et al.
// (USENIX ATC 2015) that the paper discusses in §II: per-class miss ratio
// curves drive a periodic re-solve of the whole allocation. Each class runs
// a shadow stack (package mrc) deeper than its current allocation; every
// few windows the hit curves are waterfilled against the slab budget
// (optimal for concave curves — LAMA's dynamic program in the regime cache
// curves occupy) and slabs migrate toward the solution.
//
// The objective mirrors LAMA's two variants: hit ratio, or average request
// time, where a class's curve is weighted by its *average* miss time. The
// paper's critique — "average service time … may not be sufficiently
// representative … PAMA uses actual miss penalties associated with each
// slab" — is exactly the difference between this policy and core.PAMA, and
// the baselines figure (results/fig_baselines.tsv) measures it.
type LAMA struct {
	c         *cache.Cache
	objective MRCObjective
	// ExtraDepth is how many slabs beyond the whole budget each shadow
	// can see (cap on curve knowledge).
	ExtraDepth int
	// SolveEvery re-solves the allocation every this many windows.
	SolveEvery int
	// MaxMovesPerSolve bounds migration speed toward the solution.
	MaxMovesPerSolve int

	trackers []*mrc.Tracker
	sumPen   []float64
	nPen     []uint64
	windows  int
}

// NewLAMA returns the policy with the given objective.
func NewLAMA(obj MRCObjective) *LAMA {
	return &LAMA{
		objective:        obj,
		ExtraDepth:       8,
		SolveEvery:       2,
		MaxMovesPerSolve: 8,
	}
}

// Name implements cache.Policy.
func (l *LAMA) Name() string {
	if l.objective == ObjectiveAvgTime {
		return "lama-time"
	}
	return "lama-hit"
}

// SubclassBounds implements cache.Policy: LAMA runs one stack per class.
func (l *LAMA) SubclassBounds() []float64 { return nil }

// Segments implements cache.Policy: LAMA does not price bottom segments.
func (l *LAMA) Segments() int { return 0 }

// GhostSegments implements cache.Policy: the shadow stacks subsume ghosts.
func (l *LAMA) GhostSegments() int { return 0 }

// Attach implements cache.Policy.
func (l *LAMA) Attach(c *cache.Cache) {
	l.c = c
	nc := c.NumClasses()
	l.trackers = make([]*mrc.Tracker, nc)
	l.sumPen = make([]float64, nc)
	l.nPen = make([]uint64, nc)
	// Shadow depth: enough to see the value of any feasible allocation
	// (the whole budget could in principle go to one class).
	total := c.TotalSlabsBudget()
	for cl := 0; cl < nc; cl++ {
		l.trackers[cl] = mrc.NewTracker(c.SlotsPerSlab(cl), total+l.ExtraDepth)
	}
}

// OnHit implements cache.Policy.
func (l *LAMA) OnHit(it *kv.Item, _ int) {
	l.trackers[it.Class].Access(it.Key(), it.Hash)
}

// OnMiss implements cache.Policy: misses contribute to the class's average
// miss time (the time objective's weight).
func (l *LAMA) OnMiss(class, _ int, ghostPen float64, ghostSeg int) {
	if class >= 0 && ghostSeg >= 0 {
		l.sumPen[class] += ghostPen
		l.nPen[class]++
	}
}

// OnInsert implements cache.Policy: a miss refill (or explicit SET) is an
// access at the key's reuse distance.
func (l *LAMA) OnInsert(it *kv.Item) {
	l.trackers[it.Class].Access(it.Key(), it.Hash)
	l.sumPen[it.Class] += it.Penalty
	l.nPen[it.Class]++
}

// OnEvict implements cache.Policy.
func (l *LAMA) OnEvict(*kv.Item) {}

// MakeRoom implements cache.Policy: between solves, the engine replaces
// within the class.
func (l *LAMA) MakeRoom(int, int) {}

// OnWindow implements cache.Policy: every SolveEvery windows, waterfill the
// hit curves and migrate toward the solution.
func (l *LAMA) OnWindow() {
	l.windows++
	if l.windows%l.SolveEvery != 0 {
		return
	}
	c := l.c
	if c.FreeSlabs() > 0 {
		return
	}
	nc := c.NumClasses()
	curves := make([][]float64, nc)
	weights := make([]float64, nc)
	mins := make([]int, nc)
	active := false
	for cl := 0; cl < nc; cl++ {
		curves[cl] = l.trackers[cl].HitCurve()
		weights[cl] = 1
		if l.objective == ObjectiveAvgTime && l.nPen[cl] > 0 {
			weights[cl] = l.sumPen[cl] / float64(l.nPen[cl])
		}
		if l.trackers[cl].Len() > 0 {
			// Classes with live traffic must stay servable; idle
			// classes may be drained entirely.
			mins[cl] = 1
			active = true
		}
	}
	if !active {
		return
	}
	target := mrc.WaterfillMin(curves, weights, c.TotalSlabsBudget(), mins)
	// Migrate toward the target, largest-deficit receiver first, from the
	// largest-surplus donor (donors keep one slab).
	for move := 0; move < l.MaxMovesPerSolve; move++ {
		recv, worstDef := -1, 0
		donor, worstSur := -1, 0
		for cl := 0; cl < nc; cl++ {
			d := target[cl] - c.Slabs(cl)
			if d > worstDef {
				recv, worstDef = cl, d
			}
			if s := -d; s > worstSur && c.Slabs(cl) >= 2 {
				donor, worstSur = cl, s
			}
		}
		if recv < 0 || donor < 0 || recv == donor {
			break
		}
		if err := c.MigrateSlab(donor, 0, recv); err != nil {
			break
		}
	}
	for cl := 0; cl < nc; cl++ {
		l.trackers[cl].ResetWindow()
	}
}

var _ cache.Policy = (*LAMA)(nil)
