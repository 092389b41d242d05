// Package geom learns slab-class slot-size tables from the observed item
// size distribution, replacing the fixed power-of-two law that leaves
// "memory holes": a 65-byte item in a 128-byte slot wastes almost half its
// slot. Following "Learning Slab Classes to Alleviate Memory Holes in
// Memcached" (PAPERS.md), the package keeps a compact log-scale size
// histogram and runs a dynamic-programming boundary solver that places a
// budgeted number of class boundaries to minimize expected internal
// fragmentation, always keeping the largest slot big enough for every
// observed item.
//
// The result is a static table for cache.Config.Geometry: the engine never
// changes geometry while it runs (DESIGN.md §12 says why). Nothing here
// locks.
package geom

import (
	"fmt"
	"sort"

	"pamakv/internal/kv"
)

// bucketRatioBits subdivides each size octave into 2^bucketRatioBits
// histogram buckets (8 per octave: ~9% relative resolution, ~170 buckets
// across 8 B .. 1 MiB — fine enough that class boundaries land within a few
// percent of optimal, small enough that the O(classes * buckets^2) solver
// is microseconds).
const bucketRatioBits = 3

// Histogram is a log-scale item-size histogram: per-bucket request counts
// and size sums, so the solver can compute exact expected waste for any
// boundary placed on a bucket edge. The zero value is not usable; call
// NewHistogram.
type Histogram struct {
	edges  []int // ascending inclusive upper edges; edges[len-1] == maxItem
	counts []uint64
	sums   []uint64
	total  uint64
	maxObs int // largest size observed so far
}

// NewHistogram covers sizes 1..maxItem.
func NewHistogram(maxItem int) *Histogram {
	if maxItem < 1 {
		maxItem = 1
	}
	var edges []int
	e := 8
	if maxItem < e {
		e = maxItem
	}
	for e < maxItem {
		edges = append(edges, e)
		// Next edge: multiply by 2^(1/2^bucketRatioBits), at least +1.
		next := e + e>>bucketRatioBits
		if next <= e {
			next = e + 1
		}
		e = next
	}
	edges = append(edges, maxItem)
	return &Histogram{
		edges:  edges,
		counts: make([]uint64, len(edges)),
		sums:   make([]uint64, len(edges)),
	}
}

// MaxItem returns the histogram's size ceiling.
func (h *Histogram) MaxItem() int { return h.edges[len(h.edges)-1] }

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// MaxObserved returns the largest size observed (0 when empty).
func (h *Histogram) MaxObserved() int { return h.maxObs }

// bucketOf returns the index of the first bucket whose upper edge fits
// size.
func (h *Histogram) bucketOf(size int) int {
	return sort.SearchInts(h.edges, size)
}

// Observe records one item of the given size. Sizes outside [1, MaxItem]
// are clamped.
func (h *Histogram) Observe(size int) {
	if size < 1 {
		size = 1
	}
	if size > h.MaxItem() {
		size = h.MaxItem()
	}
	b := h.bucketOf(size)
	h.counts[b]++
	h.sums[b] += uint64(size)
	h.total++
	if size > h.maxObs {
		h.maxObs = size
	}
}

// Solve places at most classes boundaries to minimize expected internal
// fragmentation (bytes of slot beyond item size, summed over the observed
// distribution), returning a table geometry for slabSize-byte slabs whose
// largest slot is exactly maxSlot — so any item the current geometry can
// hold still fits. maxSlot is clamped to [MaxObserved, slabSize]. An empty
// histogram yields a geometric (power-of-two-like) fallback table.
func (h *Histogram) Solve(classes, slabSize, maxSlot int) (kv.Geometry, error) {
	if classes < 1 {
		return kv.Geometry{}, fmt.Errorf("geom: class budget %d must be positive", classes)
	}
	if slabSize < 1 {
		return kv.Geometry{}, fmt.Errorf("geom: slab size %d must be positive", slabSize)
	}
	if maxSlot < h.maxObs {
		maxSlot = h.maxObs
	}
	if maxSlot > slabSize {
		maxSlot = slabSize
	}
	if maxSlot < 1 {
		maxSlot = 1
	}
	if h.total == 0 {
		return fallbackGeometry(classes, slabSize, maxSlot)
	}

	// Candidate boundaries: the upper edge of every non-empty prefix of
	// buckets strictly below maxSlot, plus maxSlot itself as the forced
	// final boundary. Working on edges keeps the DP exact: every item in
	// buckets <= j fits a slot of edge[j].
	type cand struct {
		edge     int
		cnt, sum uint64 // cumulative counts/sums up to this edge
	}
	var cands []cand
	var ccnt, csum uint64
	for i, e := range h.edges {
		if e >= maxSlot {
			break
		}
		ccnt += h.counts[i]
		csum += h.sums[i]
		cands = append(cands, cand{edge: e, cnt: ccnt, sum: csum})
	}
	// The final forced boundary absorbs everything at or above the last
	// sub-maxSlot edge.
	for i := range h.edges {
		if h.edges[i] >= maxSlot {
			ccnt += h.counts[i]
			csum += h.sums[i]
		}
	}
	cands = append(cands, cand{edge: maxSlot, cnt: ccnt, sum: csum})

	n := len(cands)
	if classes > n {
		classes = n
	}
	// waste(i, j): fragmentation of one class with boundary cands[j].edge
	// covering items in (cands[i].edge, cands[j].edge] (i == -1 means from
	// the bottom).
	waste := func(i, j int) uint64 {
		cnt, sum := cands[j].cnt, cands[j].sum
		if i >= 0 {
			cnt -= cands[i].cnt
			sum -= cands[i].sum
		}
		return cnt*uint64(cands[j].edge) - sum
	}
	const inf = ^uint64(0)
	// dp[c][j]: min waste covering candidates 0..j with c+1 classes, the
	// last boundary at cands[j].
	dp := make([][]uint64, classes)
	choice := make([][]int, classes)
	for c := range dp {
		dp[c] = make([]uint64, n)
		choice[c] = make([]int, n)
		for j := range dp[c] {
			dp[c][j] = inf
			choice[c][j] = -1
		}
	}
	for j := 0; j < n; j++ {
		dp[0][j] = waste(-1, j)
	}
	for c := 1; c < classes; c++ {
		for j := c; j < n; j++ {
			for i := c - 1; i < j; i++ {
				if dp[c-1][i] == inf {
					continue
				}
				w := dp[c-1][i] + waste(i, j)
				if w < dp[c][j] {
					dp[c][j] = w
					choice[c][j] = i
				}
			}
		}
	}
	// Best class count ending at the forced final boundary (fewer classes
	// can never beat more under this objective, but guard against inf).
	bestC := 0
	for c := classes - 1; c >= 0; c-- {
		if dp[c][n-1] != inf {
			bestC = c
			break
		}
	}
	slots := make([]int, 0, bestC+1)
	for c, j := bestC, n-1; j >= 0 && c >= 0; c-- {
		slots = append(slots, cands[j].edge)
		j = choice[c][j]
	}
	// Reverse into ascending order.
	for l, r := 0, len(slots)-1; l < r; l, r = l+1, r-1 {
		slots[l], slots[r] = slots[r], slots[l]
	}
	return kv.NewTableGeometry(slabSize, slots)
}

// fallbackGeometry builds a doubling table from maxSlot downward — the
// shape DefaultGeometry has — honoring the class budget.
func fallbackGeometry(classes, slabSize, maxSlot int) (kv.Geometry, error) {
	var slots []int
	s := maxSlot
	for len(slots) < classes && s >= 1 {
		slots = append(slots, s)
		if s == 1 {
			break
		}
		s /= 2
	}
	for l, r := 0, len(slots)-1; l < r; l, r = l+1, r-1 {
		slots[l], slots[r] = slots[r], slots[l]
	}
	return kv.NewTableGeometry(slabSize, slots)
}

// PredictedWaste returns the expected internal fragmentation, in bytes per
// observed item, that geometry g would suffer on this histogram's size
// distribution (0 when the histogram is empty). Items too large for g are
// charged the largest slot.
func (h *Histogram) PredictedWaste(g kv.Geometry) float64 {
	if h.total == 0 {
		return 0
	}
	var wasted uint64
	for i, e := range h.edges {
		if h.counts[i] == 0 {
			continue
		}
		cl := g.ClassFor(e)
		if cl < 0 {
			cl = g.NumClasses - 1
		}
		slot := uint64(g.SlotSize(cl))
		w := h.counts[i] * slot
		if s := h.sums[i]; s < w {
			w -= s
		} else {
			w = 0
		}
		wasted += w
	}
	return float64(wasted) / float64(h.total)
}
