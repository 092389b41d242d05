package cache

// This file is the engine's introspection surface: one consistent snapshot
// of everything the paper's figures are drawn from — per-class slab counts
// (Fig. 3), per-subclass stack depths (Fig. 4), penalty-band hit/miss
// attribution, the src→dst slab-move matrix behind the allocation
// trajectories, and evictions with their penalty by subclass. The live admin
// endpoints (/metrics, /statsz) and the shard group's merged view are both
// built on it.

import "pamakv/internal/obs"

// PolicyDecisions are the reallocation decisions a policy reports for
// introspection: how often it replaced in place because the cheapest
// candidate was local (paper scenario 2), declined because the incoming
// value could not pay for the donor's loss (scenario 1), or had to migrate
// into a class owning no slab. The slab moves and evictions that carry the
// decisions out are the engine's to count (Introspection.SlabMoves,
// EvictsBySub).
type PolicyDecisions struct {
	// SameClass counts in-place replacements chosen because the cheapest
	// candidate slab was already in the requesting class.
	SameClass uint64 `json:"same_class" prom:"pamakv_policy_same_class_total" help:"Replacements kept in-class (cheapest candidate was local)."`
	// NotWorthIt counts migrations declined on price (incoming value <=
	// cheapest outgoing value).
	NotWorthIt uint64 `json:"not_worth_it" prom:"pamakv_policy_not_worth_it_total" help:"Migrations declined on price (incoming <= outgoing value)."`
	// Forced counts migrations forced because the requesting class owned
	// no slabs at all.
	Forced uint64 `json:"forced" prom:"pamakv_policy_forced_total" help:"Migrations forced by an empty class."`
}

// DecisionReporter is optionally implemented by policies that track their
// reallocation decisions (PAMA). ReportDecisions is called with the engine
// lock held and must not call back into the engine.
type DecisionReporter interface {
	ReportDecisions() PolicyDecisions
}

// Introspection is one consistent, deep-copied snapshot of the engine's
// allocation state and attribution counters, taken under the engine lock.
type Introspection struct {
	// Policy names the attached allocation policy.
	Policy string `json:"policy"`
	// Classes and Subclasses give the matrix dimensions below.
	Classes    int `json:"classes" merge:"keep"`
	Subclasses int `json:"subclasses" merge:"keep"`
	// SlotSizes is the item-size ceiling of each class, in bytes.
	SlotSizes []int `json:"slot_sizes" merge:"keep"`
	// SubclassBounds are the penalty edges dividing subclasses, in seconds
	// (nil for single-subclass policies).
	SubclassBounds []float64 `json:"subclass_bounds,omitempty" merge:"keep"`

	// Slabs is the per-class slab allocation (the paper's Fig. 3 series);
	// FreeSlabs and TotalSlabs complete the budget.
	Slabs      []int `json:"slabs" prom:"pamakv_slabs" help:"Slabs owned per size class." label:"class"`
	FreeSlabs  int   `json:"free_slabs" prom:"pamakv_free_slabs" help:"Slabs not yet granted to any class."`
	TotalSlabs int   `json:"total_slabs" prom:"pamakv_total_slabs" help:"Slab budget."`
	// UsedSlots is per-class slot occupancy.
	UsedSlots []int `json:"used_slots" prom:"pamakv_used_slots" help:"Occupied slots per size class." label:"class"`
	// BytesHoles is per-class internal fragmentation — bytes of slot
	// capacity occupied by residents but unused (the memory-holes gauge).
	BytesHoles []int64 `json:"bytes_holes" prom:"pamakv_holes_bytes,sparse" help:"Internal fragmentation per size class: slot bytes occupied by residents but unused." label:"class"`
	// FreeValueBuffers is, per class, how many free value slots its pages
	// stack (values.go): the class's free slots, all zero in metadata-only
	// mode. ValueSlabBytes is the pages mapped for values, outside the Go
	// heap: slabs owned times the slab size.
	FreeValueBuffers []int `json:"free_value_buffers" prom:"pamakv_free_value_buffers,sparse" help:"Free value slots stacked on the pages each size class owns." label:"class"`
	ValueSlabBytes   int64 `json:"value_slab_bytes" prom:"pamakv_value_slab_bytes" help:"Slab pages mapped for values, outside the Go heap."`
	// RecordBytes is the record memory outside the value pages: a
	// metadata-only engine's chunks of kv.ChunkLen 64-byte records, in use or
	// free. It is 0 when values are stored, the records packed at the head
	// of their slab.
	RecordBytes int64 `json:"record_bytes" prom:"pamakv_record_bytes" help:"Go heap held by a metadata-only engine's chunks of 64-byte item records (0 when values are stored: records sit in the mapped value pages)."`
	// IndexBytes is the memory the key index maps outside the Go heap: its
	// 8-byte slots, a power of two at least twice the residents.
	IndexBytes int64 `json:"index_bytes" prom:"pamakv_index_bytes" help:"Memory mapped outside the Go heap for the key index's 8-byte slots."`
	// GhostEntries is the ghosts the ghost regions hold and GhostBytes the
	// memory their records and buckets map outside the Go heap (ghost.go).
	// With the value pages and the index they are all of an engine's memory
	// that grows with its items.
	GhostEntries int   `json:"ghost_entries" prom:"pamakv_ghost_entries" help:"Evicted keys the ghost regions remember, by hash and penalty."`
	GhostBytes   int64 `json:"ghost_bytes" prom:"pamakv_ghost_bytes" help:"Memory mapped outside the Go heap for ghost records and their buckets."`
	// StaleBytes, StaleItems and StaleEvicts are the occupancy and
	// evictions of the stale table (Config.Stale; zero without one). Every
	// engine of a node shares the one table, so a merge keeps the first.
	StaleBytes  int64  `json:"stale_bytes" prom:"pamakv_stale_buffer_bytes" help:"Bytes resident in the serve-stale buffer." merge:"keep"`
	StaleItems  int    `json:"stale_items" prom:"pamakv_stale_buffer_items" help:"Entries resident in the serve-stale buffer." merge:"keep"`
	StaleEvicts uint64 `json:"stale_evicts" prom:"pamakv_stale_buffer_evictions_total" help:"Serve-stale buffer entries evicted past its byte budget." merge:"keep"`

	// SubLens[class][sub] is each subclass LRU stack's resident depth
	// (Fig. 4's per-subclass allocation, in items).
	SubLens [][]int `json:"subclass_lens" prom:"pamakv_subclass_items,sparse" help:"Resident items per (class, penalty subclass) LRU stack." label:"class,sub"`
	// SubHits and SubMisses attribute GET hits and misses to the
	// (class, penalty-band) they landed in. Misses are only attributed
	// when the engine can locate the would-be home (ghost hit or size
	// hint), so the matrix undercounts cold misses by design.
	SubHits   [][]uint64 `json:"subclass_hits" prom:"pamakv_subclass_hits_total,sparse" help:"GET hits by (class, penalty subclass)." label:"class,sub"`
	SubMisses [][]uint64 `json:"subclass_misses" prom:"pamakv_subclass_misses_total,sparse" help:"Attributed GET misses by would-be (class, penalty subclass)." label:"class,sub"`

	// SlabMoves[src][dst] counts cross-class slab migrations by donor and
	// receiver class, whatever policy performed them.
	SlabMoves [][]uint64 `json:"slab_moves" prom:"pamakv_slab_moves_total,sparse" help:"Cross-class slab moves by donor and receiver class." label:"src,dst"`
	// EvictsBySub counts evictions by penalty subclass and
	// EvictedPenaltyBySub sums the miss penalties of the evicted items —
	// the cost the policy chose to pay — whatever policy evicted them.
	EvictsBySub         []uint64  `json:"evicts_by_sub" prom:"pamakv_policy_evictions_total" help:"Evictions by penalty subclass." label:"sub"`
	EvictedPenaltyBySub []float64 `json:"evicted_penalty_by_sub" prom:"pamakv_policy_evicted_penalty_seconds_total" help:"Summed miss penalty of evicted items by subclass." label:"sub"`

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
		GhostEntries:     c.ghosts.n,
		GhostBytes:       c.ghosts.bytes(),
		RecordBytes:      c.recs.Bytes(),
		IndexBytes:       c.index.Bytes(),
		Items:            c.index.Len(),
		Stats:            c.stats,
	}
	in.Stats.SlabMigrations = c.slabs.Migrations
	in.EvictsBySub = append([]uint64(nil), c.evicts...)
	in.EvictedPenaltyBySub = append([]float64(nil), c.evictPen...)
	if c.arena != nil {
		in.ValueSlabBytes = int64(c.arena.mapped()) * int64(c.geom.SlabSize)
	}
	if t := c.cfg.Stale; t != nil {
		st := t.Stats()
		in.StaleBytes, in.StaleItems, in.StaleEvicts = st.Bytes, st.Items, st.Evicts
	}
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
func (in *Introspection) Merge(other Introspection) { obs.Sum(in, other) }
