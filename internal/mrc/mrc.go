// Package mrc builds per-class miss-ratio curves from reuse (stack)
// distances, and solves the slab-allocation problem over them — the
// machinery behind LAMA (Hu et al., USENIX ATC 2015), which the paper
// discusses as related work (§II): "use miss ratio curve for quantifying
// access locality and use the curve to determine the optimal space
// allocation for each class."
//
// A Tracker is a shadow LRU of keys only (no values), deeper than the
// class's current allocation, with an order-statistics ring giving each
// re-access's exact stack distance in O(log n). Distances are histogrammed
// in slab-sized buckets: hist[b] counts hits that an allocation of at least
// b+1 slabs would capture, so the cumulative histogram *is* the class's hit
// curve and 1-curve the miss-ratio curve.
//
// Waterfill allocates a slab budget across classes by repeatedly granting
// the next slab to the class with the largest marginal (optionally
// weighted) hit gain — the exact optimum when curves are concave, which
// LRU hit curves essentially are, and the same answer LAMA's dynamic
// program produces there.
package mrc

import (
	"strings"

	"pamakv/internal/hashtable"
	"pamakv/internal/kv"
	"pamakv/internal/lru"
	"pamakv/internal/rank"
)

// Tracker records reuse distances for one class. Its shadow items are
// records of its own store, each holding a copy of its key.
type Tracker struct {
	spc     int // slots (items) per slab-sized bucket
	maxKeys int // shadow depth in items
	recs    kv.Records
	list    lru.List
	ring    *rank.Ring
	idx     *hashtable.Table
	hist    []uint64
	// Infinite counts accesses whose reuse distance exceeds the shadow
	// depth, plus first-touches (cold misses) — unconvertible by any
	// allocation the tracker can see.
	Infinite uint64
}

// NewTracker builds a tracker with buckets of spc items covering depth
// slabs.
func NewTracker(spc, depth int) *Tracker {
	if spc < 1 {
		spc = 1
	}
	if depth < 1 {
		depth = 1
	}
	t := &Tracker{
		spc:     spc,
		maxKeys: spc * depth,
		ring:    rank.New(256),
		hist:    make([]uint64, depth),
	}
	t.list = lru.New(&t.recs)
	t.idx = hashtable.New(&t.recs, 1<<8)
	return t
}

// Depth returns the shadow depth in slabs.
func (t *Tracker) Depth() int { return len(t.hist) }

// Len returns the current shadow population.
func (t *Tracker) Len() int { return t.list.Len() }

// Access records one request for key: its stack distance is histogrammed
// and the key is promoted to the shadow's MRU end.
func (t *Tracker) Access(key string, hash uint64) {
	if id := t.idx.Get(hash, key); id != 0 {
		it := t.recs.At(id)
		// Distance from the top: number of items above it in the
		// stack = live items younger than it.
		dist := t.list.Len() - 1 - t.ring.Rank(it)
		b := dist / t.spc
		if b < len(t.hist) {
			t.hist[b]++
		} else {
			t.Infinite++
		}
		t.ring.Remove(it)
		t.list.MoveToFront(id)
		t.reinsert(it)
		return
	}
	t.Infinite++ // first touch within the shadow's memory
	id, it := t.recs.New()
	t.recs.HoldKey(id, strings.Clone(key)) // the shadow outlives the caller's key
	it.Hash = hash
	t.idx.Insert(id)
	t.list.PushFront(id)
	t.reinsert(it)
	for t.list.Len() > t.maxKeys {
		old := t.list.PopBack()
		t.ring.Remove(t.recs.At(old))
		t.idx.Remove(old)
		t.recs.Free(old)
	}
}

func (t *Tracker) reinsert(it *kv.Item) {
	if t.ring.Full() {
		t.ring.Reset()
		t.list.AscendFromBack(func(_ uint32, x *kv.Item) bool {
			t.ring.Insert(x)
			return true
		})
		return
	}
	t.ring.Insert(it)
}

// Hist returns the distance histogram (bucket b = hits needing b+1 slabs).
// The returned slice is the tracker's own; copy before mutating.
func (t *Tracker) Hist() []uint64 { return t.hist }

// HitCurve returns the cumulative hit counts H(k) for allocations of
// k = 0..Depth slabs (H(0) = 0).
func (t *Tracker) HitCurve() []float64 {
	out := make([]float64, len(t.hist)+1)
	for i, h := range t.hist {
		out[i+1] = out[i] + float64(h)
	}
	return out
}

// ResetWindow clears the histogram (the shadow stack itself persists, so
// distances stay exact across windows).
func (t *Tracker) ResetWindow() {
	for i := range t.hist {
		t.hist[i] = 0
	}
	t.Infinite = 0
}

// Waterfill distributes total slabs across classes to maximize
// Σ weights[c] * curves[c][k_c], granting every class at least minPer slabs
// (when the budget allows). Allocations beyond a curve's depth have zero
// marginal gain and are only used to park surplus budget. curves[c] must be
// cumulative hit curves as returned by HitCurve. The result sums exactly to
// total.
func Waterfill(curves [][]float64, weights []float64, total, minPer int) []int {
	mins := make([]int, len(curves))
	for i := range mins {
		mins[i] = minPer
	}
	return WaterfillMin(curves, weights, total, mins)
}

// WaterfillMin is Waterfill with a per-class minimum (e.g. zero for classes
// with no traffic, one for active classes that must stay servable).
func WaterfillMin(curves [][]float64, weights []float64, total int, mins []int) []int {
	n := len(curves)
	alloc := make([]int, n)
	if n == 0 || total <= 0 {
		return alloc
	}
	left := total
	for c := 0; c < n && left > 0; c++ {
		give := mins[c]
		if give < 0 {
			give = 0
		}
		if give > left {
			give = left
		}
		alloc[c] = give
		left -= give
	}
	marginal := func(c int) float64 {
		k := alloc[c]
		cv := curves[c]
		if k+1 >= len(cv) {
			return 0
		}
		return weights[c] * (cv[k+1] - cv[k])
	}
	for ; left > 0; left-- {
		best, bestGain := 0, -1.0
		for c := 0; c < n; c++ {
			if g := marginal(c); g > bestGain {
				best, bestGain = c, g
			}
		}
		alloc[best]++
	}
	return alloc
}
