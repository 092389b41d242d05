// Package segment tracks which slab-sized segment of an LRU stack's bottom
// region an access lands in — the measurement PAMA's slab valuation is built
// on (paper §III).
//
// The bottom of each subclass stack is divided into nseg segments of segSize
// items each: segment 0 is the candidate slab (the virtual slab that would
// be evicted if the subclass donates memory), segments 1..nseg-1 are the
// reference segments above it. Touch reports the segment an accessed item
// occupied, or -1 when the item is above the tracked region.
//
// Two implementations share the Tracker interface:
//
//   - Exact tags each item with its segment and keeps one boundary item id
//     per segment — O(nseg) per access, zero error. The engine's ghost
//     regions tag their hash-only records the same way (package cache).
//   - Bloom implements the paper's scheme: one Bloom filter per segment plus
//     a removal filter, rebuilt from a stack scan at every window rollover —
//     O(1) per access with bounded staleness and false-positive error.
//
// The engine can run either; the ablations figure (TestAblationsShape)
// compares them.
package segment

import (
	"fmt"

	"pamakv/internal/bloom"
	"pamakv/internal/kv"
	"pamakv/internal/lru"
)

// Tracker attributes accesses on one LRU stack to bottom segments. The
// tracker owns the stack's LRU motion: Insert is called after the item has
// been pushed onto the list's MRU end, Remove while the item is still on the
// list, and Touch moves the item to the MRU end itself, so the tracker's
// internal order can never drift from the list order. Items are the list's
// record ids.
type Tracker interface {
	// Insert registers a brand-new item that the caller has just pushed
	// onto the list's MRU end.
	Insert(id uint32)
	// Remove unregisters an item about to leave the stack (eviction,
	// delete, migration), from any position, while it is still on the list.
	Remove(id uint32)
	// Touch handles an access: it reports the segment the item occupied
	// (0 = candidate, 1..nseg-1 = reference, -1 = above the region) and
	// moves the item to the list's MRU end.
	Touch(id uint32) int
	// Repoint tells the tracker that its item old now lives at id new, its
	// record copied there and already repointed on the list.
	Repoint(old, new uint32)
	// Rollover marks a value-window boundary (Bloom rebuilds snapshots).
	Rollover()
	// Segments returns the number of tracked segments.
	Segments() int
}

// Exact is the ground-truth tracker. The item p places from the list's back
// carries min(p/segSize, nseg) in its Seq; top[k] is the id of segment k's
// topmost item once the segment holds segSize items, 0 before.
type Exact struct {
	list    *lru.List
	recs    *kv.Records
	top     []uint32
	segSize int
	nseg    int
}

// NewExact tracks nseg segments of segSize items at the bottom of list.
func NewExact(list *lru.List, segSize, nseg int) *Exact {
	return &Exact{list: list, recs: list.Records(), top: make([]uint32, nseg), segSize: segSize, nseg: nseg}
}

// Insert implements Tracker: the item, now the list's front, is tagged by
// its position and becomes its segment's boundary if it completes it.
func (e *Exact) Insert(id uint32) {
	it := e.recs.At(id)
	if e.top[e.nseg-1] != 0 { // the region is full: the front is above it
		it.Seq = uint32(e.nseg)
		return
	}
	pos := e.list.Len() - 1
	k := pos / e.segSize
	it.Seq = uint32(k)
	if pos%e.segSize == e.segSize-1 {
		e.top[k] = id
	}
}

// Remove implements Tracker: each full segment from the item's own upward
// takes the item above its boundary as its new boundary, re-tagged.
func (e *Exact) Remove(id uint32) {
	for k := int(e.recs.At(id).Seq); k < e.nseg && e.top[k] != 0; k++ {
		t := e.recs.At(e.top[k]).Prev
		e.top[k] = t
		if t != 0 {
			e.recs.At(t).Seq = uint32(k)
		}
	}
}

// Touch implements Tracker. An item above the region passes only items
// above it, so it just moves.
func (e *Exact) Touch(id uint32) int {
	k := int(e.recs.At(id).Seq)
	if k == e.nseg {
		e.list.MoveToFront(id)
		return -1
	}
	e.Remove(id)
	e.list.MoveToFront(id)
	e.Insert(id)
	return k
}

// Repoint implements Tracker: if old was its segment's boundary, new is.
func (e *Exact) Repoint(old, new uint32) {
	if k := int(e.recs.At(new).Seq); k < e.nseg && e.top[k] == old {
		e.top[k] = new
	}
}

// Rollover implements Tracker (no-op: Exact is always current).
func (e *Exact) Rollover() {}

// Segments implements Tracker.
func (e *Exact) Segments() int { return e.nseg }

// Check audits the tracker against a walk of its list from the back: every
// item's tag is min(position/segSize, nseg), and each boundary is its
// segment's topmost item, 0 while the segment is not full.
func (e *Exact) Check() error {
	pos := 0
	var err error
	e.list.AscendFromBack(func(id uint32, it *kv.Item) bool {
		k := min(pos/e.segSize, e.nseg)
		switch {
		case it.Seq != uint32(k):
			err = fmt.Errorf("segment: item %q at position %d tagged %d, want %d", it.Key(), pos, it.Seq, k)
		case k < e.nseg && pos%e.segSize == e.segSize-1 && e.top[k] != id:
			err = fmt.Errorf("segment: boundary of segment %d is not its topmost item %q", k, it.Key())
		}
		pos++
		return err == nil
	})
	for k := pos / e.segSize; err == nil && k < e.nseg; k++ {
		if e.top[k] != 0 {
			err = fmt.Errorf("segment: segment %d holds fewer than %d items but has a boundary", k, e.segSize)
		}
	}
	return err
}

// Bloom is the paper's approximate tracker.
type Bloom struct {
	list    *lru.List
	set     *bloom.SegmentSet
	segSize int
	nseg    int
}

// NewBloom tracks nseg segments of segSize items using per-segment Bloom
// filters; the snapshot is rebuilt on Rollover.
func NewBloom(list *lru.List, segSize, nseg int) *Bloom {
	b := &Bloom{
		list:    list,
		set:     bloom.NewSegmentSet(nseg, segSize),
		segSize: segSize,
		nseg:    nseg,
	}
	return b
}

// Insert implements Tracker. A new item enters at the MRU end, far above
// the bottom region, so the filters are untouched.
func (b *Bloom) Insert(uint32) {}

// Remove implements Tracker: an eviction from the bottom region must not
// keep matching, so it is recorded in the removal filter.
func (b *Bloom) Remove(id uint32) {
	if h := b.list.Records().At(id).Hash; b.set.Lookup(h) >= 0 {
		b.set.MarkRemoved(h)
	}
}

// Touch implements Tracker: look the key up in the segment filters; on a
// match, record the key's departure from the region, then move the item to
// the MRU end.
func (b *Bloom) Touch(id uint32) int {
	h := b.list.Records().At(id).Hash
	seg := b.set.Lookup(h)
	if seg >= 0 {
		b.set.MarkRemoved(h)
	}
	b.list.MoveToFront(id)
	return seg
}

// Repoint implements Tracker: the filters hold hashes, not ids.
func (b *Bloom) Repoint(uint32, uint32) {}

// Rollover implements Tracker: rebuild the per-segment snapshots from the
// current stack bottom.
func (b *Bloom) Rollover() {
	b.set.Reset()
	i := 0
	b.list.AscendFromBack(func(_ uint32, it *kv.Item) bool {
		seg := i / b.segSize
		if seg >= b.nseg {
			return false
		}
		b.set.AddToSegment(seg, it.Hash)
		i++
		return true
	})
}

// Segments implements Tracker.
func (b *Bloom) Segments() int { return b.nseg }

// Interface conformance checks.
var (
	_ Tracker = (*Exact)(nil)
	_ Tracker = (*Bloom)(nil)
)
