package cache

// This file is the engine's introspection surface: one consistent snapshot
// of everything the paper's figures are drawn from — per-class slab counts
// (Fig. 3), per-subclass stack depths (Fig. 4), penalty-band hit/miss
// attribution, and the src→dst slab-move matrix behind the allocation
// trajectories. The live admin endpoints (/metrics, /statsz) and the shard
// group's merged view are both built on it.

// PolicyDecisions are the reallocation-decision counters a policy exposes
// for introspection: how often it migrated, replaced in place because the
// cheapest candidate was local (paper scenario 2), or declined because the
// incoming value could not pay for the donor's loss (scenario 1).
type PolicyDecisions struct {
	// Migrations counts cross-class slab moves the policy performed.
	Migrations uint64 `json:"migrations"`
	// SameClass counts in-place replacements chosen because the cheapest
	// candidate slab was already in the requesting class.
	SameClass uint64 `json:"same_class"`
	// NotWorthIt counts migrations declined on price (incoming value <=
	// cheapest outgoing value).
	NotWorthIt uint64 `json:"not_worth_it"`
	// Forced counts migrations forced because the requesting class owned
	// no slabs at all.
	Forced uint64 `json:"forced"`
	// EvictsBySub histograms evictions by penalty subclass (nil for
	// single-stack policies).
	EvictsBySub []uint64 `json:"evicts_by_sub,omitempty"`
	// EvictedPenaltyBySub sums the miss penalties of evicted items per
	// subclass — the cost the policy chose to pay.
	EvictedPenaltyBySub []float64 `json:"evicted_penalty_by_sub,omitempty"`
}

// merge folds other into d element-wise (shard fan-in).
func (d *PolicyDecisions) merge(other PolicyDecisions) {
	d.Migrations += other.Migrations
	d.SameClass += other.SameClass
	d.NotWorthIt += other.NotWorthIt
	d.Forced += other.Forced
	for i := range other.EvictsBySub {
		if i < len(d.EvictsBySub) {
			d.EvictsBySub[i] += other.EvictsBySub[i]
		}
	}
	for i := range other.EvictedPenaltyBySub {
		if i < len(d.EvictedPenaltyBySub) {
			d.EvictedPenaltyBySub[i] += other.EvictedPenaltyBySub[i]
		}
	}
}

// MergeDecisions combines per-shard decision snapshots into one (exported
// for the shard group; element-wise sums).
func MergeDecisions(dst *PolicyDecisions, src PolicyDecisions) { dst.merge(src) }

// DecisionReporter is optionally implemented by policies that track their
// reallocation decisions (PAMA does; the baselines report move counts).
// ReportDecisions is called with the engine lock held and must not call
// back into the engine.
type DecisionReporter interface {
	ReportDecisions() PolicyDecisions
}

// Introspection is one consistent, deep-copied snapshot of the engine's
// allocation state and attribution counters, taken under the engine lock.
type Introspection struct {
	// Policy names the attached allocation policy.
	Policy string `json:"policy"`
	// Classes and Subclasses give the matrix dimensions below.
	Classes    int `json:"classes"`
	Subclasses int `json:"subclasses"`
	// SlotSizes is the item-size ceiling of each class, in bytes.
	SlotSizes []int `json:"slot_sizes"`
	// SubclassBounds are the penalty edges dividing subclasses, in seconds
	// (nil for single-subclass policies).
	SubclassBounds []float64 `json:"subclass_bounds,omitempty"`

	// Slabs is the per-class slab allocation (the paper's Fig. 3 series);
	// FreeSlabs and TotalSlabs complete the budget.
	Slabs      []int `json:"slabs"`
	FreeSlabs  int   `json:"free_slabs"`
	TotalSlabs int   `json:"total_slabs"`
	// UsedSlots is per-class slot occupancy.
	UsedSlots []int `json:"used_slots"`

	// SubLens[class][sub] is each subclass LRU stack's resident depth
	// (Fig. 4's per-subclass allocation, in items).
	SubLens [][]int `json:"subclass_lens"`
	// SubHits and SubMisses attribute GET hits and misses to the
	// (class, penalty-band) they landed in. Misses are only attributed
	// when the engine can locate the would-be home (ghost hit or size
	// hint), so the matrix undercounts cold misses by design.
	SubHits   [][]uint64 `json:"subclass_hits"`
	SubMisses [][]uint64 `json:"subclass_misses"`

	// SlabMoves[src][dst] counts cross-class slab migrations by donor and
	// receiver class, whatever policy performed them.
	SlabMoves [][]uint64 `json:"slab_moves"`

	// BytesHoles is per-class internal fragmentation — bytes of slot
	// capacity occupied by residents but unused (the memory-holes gauge).
	BytesHoles []int64 `json:"bytes_holes"`
	// FreeValueBuffers is, per class, how many released value slots are
	// stacked for reuse (values.go): never more than the class's free
	// slots, all zero in metadata-only mode.
	FreeValueBuffers []int `json:"free_value_buffers"`

	// Items is the resident item count; Stats the engine counters.
	Items int   `json:"items"`
	Stats Stats `json:"stats"`

	// Decisions is the policy's own decision counters, when it reports
	// them (nil otherwise).
	Decisions *PolicyDecisions `json:"decisions,omitempty"`
}

// Introspect snapshots the engine. Everything is copied: the caller may
// hold the result indefinitely and no engine state escapes.
func (c *Cache) Introspect() Introspection {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Apply deferred accesses so the attribution matrices and window
	// counters reflect every access that returned before this call.
	c.drainLocked()
	nc := c.geom.NumClasses
	ns := len(c.classes[0].subs)
	in := Introspection{
		Policy:           c.policy.Name(),
		Classes:          nc,
		Subclasses:       ns,
		SlotSizes:        make([]int, nc),
		SubclassBounds:   append([]float64(nil), c.bounds...),
		Slabs:            c.slabs.Snapshot(),
		FreeSlabs:        c.slabs.FreeSlabs(),
		TotalSlabs:       c.slabs.TotalSlabs(),
		UsedSlots:        make([]int, nc),
		FreeValueBuffers: make([]int, nc),
		SubLens:          make([][]int, nc),
		SubHits:          make([][]uint64, nc),
		SubMisses:        make([][]uint64, nc),
		SlabMoves:        make([][]uint64, nc),
		BytesHoles:       append([]int64(nil), c.holes...),
		Items:            c.index.Len(),
		Stats:            c.stats,
	}
	in.Stats.SlabMigrations = c.slabs.Migrations
	for ci := 0; ci < nc; ci++ {
		in.SlotSizes[ci] = c.geom.SlotSize(ci)
		in.UsedSlots[ci] = c.slabs.Used(ci)
		in.FreeValueBuffers[ci] = len(c.classes[ci].vfree)
		in.SubLens[ci] = make([]int, ns)
		for si := 0; si < ns; si++ {
			in.SubLens[ci][si] = c.classes[ci].subs[si].list.Len()
		}
		in.SubHits[ci] = append([]uint64(nil), c.subHits[ci]...)
		in.SubMisses[ci] = append([]uint64(nil), c.subMiss[ci]...)
		in.SlabMoves[ci] = append([]uint64(nil), c.moves[ci]...)
	}
	if dr, ok := c.policy.(DecisionReporter); ok {
		d := dr.ReportDecisions()
		in.Decisions = &d
	}
	return in
}

// Merge folds another engine's snapshot into this one (the shard group's
// fan-in). Both snapshots must come from engines with identical geometry
// and policy; mismatched shapes are merged where they overlap.
func (in *Introspection) Merge(other Introspection) {
	in.FreeSlabs += other.FreeSlabs
	in.TotalSlabs += other.TotalSlabs
	in.Items += other.Items
	addInts := func(dst, src []int) {
		for i := range src {
			if i < len(dst) {
				dst[i] += src[i]
			}
		}
	}
	addU64 := func(dst, src []uint64) {
		for i := range src {
			if i < len(dst) {
				dst[i] += src[i]
			}
		}
	}
	addInts(in.Slabs, other.Slabs)
	addInts(in.UsedSlots, other.UsedSlots)
	addInts(in.FreeValueBuffers, other.FreeValueBuffers)
	for i := range other.BytesHoles {
		if i < len(in.BytesHoles) {
			in.BytesHoles[i] += other.BytesHoles[i]
		}
	}
	for ci := range other.SubLens {
		if ci >= len(in.SubLens) {
			break
		}
		addInts(in.SubLens[ci], other.SubLens[ci])
		addU64(in.SubHits[ci], other.SubHits[ci])
		addU64(in.SubMisses[ci], other.SubMisses[ci])
		addU64(in.SlabMoves[ci], other.SlabMoves[ci])
	}
	in.Stats = addStats(in.Stats, other.Stats)
	if in.Decisions != nil && other.Decisions != nil {
		in.Decisions.merge(*other.Decisions)
	}
}

// addStats sums two engine counter sets field by field.
func addStats(a, b Stats) Stats {
	return Stats{
		Gets:            a.Gets + b.Gets,
		Hits:            a.Hits + b.Hits,
		Misses:          a.Misses + b.Misses,
		Sets:            a.Sets + b.Sets,
		Overwrites:      a.Overwrites + b.Overwrites,
		Deletes:         a.Deletes + b.Deletes,
		Evictions:       a.Evictions + b.Evictions,
		GhostHits:       a.GhostHits + b.GhostHits,
		Expired:         a.Expired + b.Expired,
		StaleGets:       a.StaleGets + b.StaleGets,
		TooLarge:        a.TooLarge + b.TooLarge,
		NoSpace:         a.NoSpace + b.NoSpace,
		FallbackEvicts:  a.FallbackEvicts + b.FallbackEvicts,
		WindowRollovers: a.WindowRollovers + b.WindowRollovers,
		SlabMigrations:  a.SlabMigrations + b.SlabMigrations,
		SlabDonations:   a.SlabDonations + b.SlabDonations,
		SlabReceipts:    a.SlabReceipts + b.SlabReceipts,
	}
}

// AddStats sums engine counter sets (exported for the shard group).
func AddStats(a, b Stats) Stats { return addStats(a, b) }
