package cache

import (
	"fmt"
	"unsafe"

	"pamakv/internal/kv"
)

// Ghost regions (paper §III) remember recently evicted keys by hash and
// penalty only. A ghost is a ghostRec in one engine-owned table of records
// mapped outside the Go heap (kv.Mapped), as its buckets are: no key, no
// kv.Item and no Go pointer, so the collector neither scans the ghosts nor
// counts them towards its goal. A ghost costs at most ghostBytesMax, its
// share of the buckets included: freed records are kept for reuse, and once
// a quarter or less of them hold ghosts the engine shrinks the table at the
// next window rollover. The records grow in place (kv.Mapped.Grow), so a
// growth faults in only the new eighth; doubling the buckets or shrinking
// maps new arrays, rehashes into them and unmaps the old ones, so no garbage
// is left behind; a table dropped with its engine is unmapped by its
// mappings' finalizers.
//
// Each subclass keeps its ghosts in a region, newest first, linked through
// int32 record indices (0 is the nil record). A ghost's segment is its
// position from the newest divided by the class's slots per slab, as
// segment.Exact tags a list from its bottom: the newest slab's worth of
// ghosts is segment 0, the receiving segment. Every ghost carries its tag,
// and edge[k] names segment k's oldest ghost once the segment is full, so a
// push and a removal from anywhere re-tag one ghost per segment. A region
// holds at most (ghost segments × slots per slab) ghosts and drops its oldest
// beyond that.
//
// The index is a power-of-two bucket array of record indices chained through
// the records, at most one ghost per bucket on average. It keys on the hash
// alone: two keys of one 64-bit hash share their ghost memory.

// ghostRec is one ghost: 32 bytes.
type ghostRec struct {
	hash         uint64
	pen          float64
	older, newer int32  // neighbours in the region; 0 at either end
	chain        int32  // next record in the bucket, or on the free list
	seg          uint16 // segment tag: position from the newest / slots per slab
	owner        uint16 // the region's subclass, class*subclasses + sub
}

// ghostBytesMax bounds a ghost's memory at the table's high-water mark:
// its record, up to an eighth of a record of slice headroom, and up to two
// buckets.
const ghostBytesMax = 48

// ghostRegion is one subclass's ghosts.
type ghostRegion struct {
	newest, oldest int32
	n              int
	spc            int     // ghosts per segment: the class's slots per slab
	cap            int     // segments × spc; 0 disables the region
	edge           []int32 // edge[k]: segment k's oldest ghost while it is full, else 0
}

// ghostTable holds every ghost of an engine and finds them by hash.
type ghostTable struct {
	recs    []ghostRec // recMem's records in use; recs[0] is the nil record
	buckets []int32    // bucketMem's buckets
	free    int32      // head of the free records, chained through chain
	n       int

	recMem    *kv.Mapped[ghostRec]
	bucketMem *kv.Mapped[int32]
}

func newRegion(spc, nseg int) ghostRegion {
	return ghostRegion{spc: spc, cap: nseg * spc, edge: make([]int32, nseg)}
}

// find returns the ghost of hash h, or 0.
func (t *ghostTable) find(h uint64) int32 {
	i := t.bucket(h)
	for i != 0 && t.recs[i].hash != h {
		i = t.recs[i].chain
	}
	return i
}

// bucket returns the first record of hash h's bucket, or 0: the load a find
// of h starts with.
func (t *ghostTable) bucket(h uint64) int32 {
	if t.n == 0 {
		return 0
	}
	return t.buckets[h&uint64(len(t.buckets)-1)]
}

// push makes (h, pen) the newest ghost of region r, owned by subclass owner,
// and drops the region's oldest ghosts beyond its capacity. The caller knows
// h has no ghost.
func (t *ghostTable) push(r *ghostRegion, owner uint16, h uint64, pen float64) {
	i := t.alloc()
	g := &t.recs[i]
	*g = ghostRec{hash: h, pen: pen, older: r.newest, owner: owner}
	if r.newest != 0 {
		t.recs[r.newest].newer = i
	} else {
		r.oldest = i
	}
	r.newest = i
	r.n++
	// Each full segment's oldest ghost crosses into the next segment.
	k := 0
	for ; k < len(r.edge) && r.edge[k] != 0; k++ {
		e := r.edge[k]
		t.recs[e].seg = uint16(k + 1)
		r.edge[k] = t.recs[e].newer
	}
	if k < len(r.edge) && r.n == (k+1)*r.spc {
		r.edge[k] = r.oldest // the push completed segment k
	}
	t.index(i)
	for r.n > r.cap {
		t.remove(r, r.oldest)
	}
}

// remove drops ghost i of region r, from any position: each full segment from
// i's own upward takes the ghost just older than its edge as its new edge.
func (t *ghostTable) remove(r *ghostRegion, i int32) {
	for k := int(t.recs[i].seg); k < len(r.edge) && r.edge[k] != 0; k++ {
		o := t.recs[r.edge[k]].older
		r.edge[k] = o
		if o != 0 {
			t.recs[o].seg = uint16(k)
		}
	}
	g := &t.recs[i]
	if g.older != 0 {
		t.recs[g.older].newer = g.newer
	} else {
		r.oldest = g.newer
	}
	if g.newer != 0 {
		t.recs[g.newer].older = g.older
	} else {
		r.newest = g.older
	}
	r.n--
	t.unindex(i)
	t.recs[i] = ghostRec{chain: t.free}
	t.free = i
}

// alloc returns a free record, growing the records by an eighth at a time so
// their headroom stays within ghostBytesMax.
func (t *ghostTable) alloc() int32 {
	if i := t.free; i != 0 {
		t.free = t.recs[i].chain
		return i
	}
	if len(t.recs) == 0 {
		t.mapRecs(64)
	}
	n := len(t.recs)
	if n == cap(t.recs) {
		t.mapRecs(n + n/8)
	}
	t.recs = t.recs[:n+1]
	t.recs[n] = ghostRec{} // reset leaves old ghosts past len
	return int32(n)
}

// mapRecs grows the records to c, in place (kv.Mapped.Grow), keeping the
// ones in use and at least the nil record.
func (t *ghostTable) mapRecs(c int) {
	if t.recMem == nil {
		t.recMem = kv.Map[ghostRec](c)
	} else {
		t.recMem.Grow(c)
	}
	t.recs = t.recMem.S()[:max(len(t.recs), 1)]
}

// index links record i into its bucket, doubling the buckets first when
// there would be more ghosts than buckets.
func (t *ghostTable) index(i int32) {
	if t.n == len(t.buckets) {
		old := t.bucketMem
		t.bucketMem = kv.Map[int32](max(16, 2*len(t.buckets)))
		t.buckets = t.bucketMem.S()
		for _, j := range old.S() {
			for j != 0 {
				next := t.recs[j].chain
				t.link(j)
				j = next
			}
		}
		old.Unmap()
	}
	t.link(i)
	t.n++
}

func (t *ghostTable) link(i int32) {
	b := &t.buckets[t.recs[i].hash&uint64(len(t.buckets)-1)]
	t.recs[i].chain = *b
	*b = i
}

func (t *ghostTable) unindex(i int32) {
	p := &t.buckets[t.recs[i].hash&uint64(len(t.buckets)-1)]
	for *p != i {
		p = &t.recs[*p].chain
	}
	*p = t.recs[i].chain
	t.n--
}

// sparse reports whether a quarter or less of the table's records hold
// ghosts, past the table's first allocation.
func (t *ghostTable) sparse() bool { return cap(t.recs) > 64 && 4*t.n <= cap(t.recs) }

// shrink rebuilds the table, whose regions are rs, in records and buckets
// sized for the ghosts it holds. Each region's ghosts are pushed back oldest
// to newest, which rebuilds their tags and edges exactly.
func (t *ghostTable) shrink(rs []*ghostRegion) {
	old, n := *t, t.n
	*t = ghostTable{}
	t.mapRecs(max(64, n+n/8+1))
	for _, r := range rs {
		i := r.oldest
		r.reset()
		for ; i != 0; i = old.recs[i].newer {
			t.push(r, old.recs[i].owner, old.recs[i].hash, old.recs[i].pen)
		}
	}
	old.recMem.Unmap()
	old.bucketMem.Unmap()
}

// reset empties the region; the caller resets the table.
func (r *ghostRegion) reset() {
	r.newest, r.oldest, r.n = 0, 0, 0
	clear(r.edge)
}

// reset forgets every ghost, keeping the memory.
func (t *ghostTable) reset() {
	if len(t.recs) > 0 {
		t.recs = t.recs[:1]
	}
	clear(t.buckets)
	t.free, t.n = 0, 0
}

// bytes returns the memory the table maps: records and buckets.
func (t *ghostTable) bytes() int64 {
	return int64(cap(t.recs))*int64(unsafe.Sizeof(ghostRec{})) + int64(cap(t.buckets))*4
}

// check audits region r, of subclass owner, against a walk from its newest
// ghost: links agree both ways, every ghost is indexed and tagged
// min(position/spc, segments), each edge is its segment's oldest ghost and
// nil while the segment is not full, and the region is within capacity.
func (t *ghostTable) check(r *ghostRegion, owner uint16) error {
	if r.cap == 0 {
		if r.newest != 0 || r.n != 0 {
			return fmt.Errorf("a region of no capacity holds %d ghosts", r.n)
		}
		return nil
	}
	pos := 0
	prev := int32(0)
	for i := r.newest; i != 0; i = t.recs[i].older {
		g := &t.recs[i]
		k := min(pos/r.spc, len(r.edge))
		switch {
		case g.newer != prev:
			return fmt.Errorf("ghost %d at position %d links to %d as newer, the walk came from %d", i, pos, g.newer, prev)
		case g.owner != owner:
			return fmt.Errorf("ghost %d at position %d belongs to subclass %d", i, pos, g.owner)
		case t.find(g.hash) != i:
			return fmt.Errorf("ghost %d at position %d is not found by its hash %#x", i, pos, g.hash)
		case int(g.seg) != k:
			return fmt.Errorf("ghost %d at position %d tagged %d, want %d", i, pos, g.seg, k)
		case k < len(r.edge) && pos%r.spc == r.spc-1 && r.edge[k] != i:
			return fmt.Errorf("edge of segment %d is not its oldest ghost %d", k, i)
		}
		prev = i
		pos++
	}
	switch {
	case r.oldest != prev:
		return fmt.Errorf("region's oldest ghost is %d, the walk ends at %d", r.oldest, prev)
	case pos != r.n:
		return fmt.Errorf("region counts %d ghosts, a walk finds %d", r.n, pos)
	case r.n > r.cap:
		return fmt.Errorf("region holds %d ghosts, capacity %d", r.n, r.cap)
	}
	for k := pos / r.spc; k < len(r.edge); k++ {
		if r.edge[k] != 0 {
			return fmt.Errorf("segment %d holds fewer than %d ghosts but has an edge", k, r.spc)
		}
	}
	return nil
}
