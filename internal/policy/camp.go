package policy

// CAMP — "CAMP: A Cost Adaptive Multi-Queue Eviction Policy for Key-Value
// Stores" (Ghandeharizadeh et al., PAPERS.md) — approximates GreedyDual
// with O(#queues) eviction instead of a global priority heap. Each item's
// priority is L + r, where r is its cost/size ratio rounded to a few
// significant bits and L is an inflation clock that rises to every evicted
// item's priority. Items sharing a rounded ratio form one queue; within a
// queue priorities are non-decreasing from tail to head (same r, L
// monotone), so the tail of each queue is its cheapest item and the global
// victim is the cheapest queue tail. Rounding bounds the queue count, and
// the inflation clock ages out items whose high cost no longer justifies
// their stay.
//
// The policy mirrors resident items in its own queue structure, fed by the
// engine's OnInsert/OnHit/OnEvict hooks plus the RemovalObserver hook for
// non-eviction removals (delete, expiry, replace, flush).

import (
	"math"
	"strings"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

// campEntry mirrors one resident item inside its ratio queue.
type campEntry struct {
	key        string
	class      int
	prio       float64
	seq        uint64 // tie-break: older (smaller) evicts first
	q          *campQueue
	prev, next *campEntry
}

// campQueue is one ratio class: a doubly linked list, head = most recent.
type campQueue struct {
	r          float64
	head, tail *campEntry
}

func (q *campQueue) pushHead(e *campEntry) {
	e.q, e.prev, e.next = q, nil, q.head
	if q.head != nil {
		q.head.prev = e
	}
	q.head = e
	if q.tail == nil {
		q.tail = e
	}
}

func (q *campQueue) remove(e *campEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next, e.q = nil, nil, nil
}

// CAMP is the cost-adaptive multi-queue policy.
type CAMP struct {
	c *cache.Cache
	// Precision is the number of significant mantissa bits kept when
	// rounding cost/size ratios (the paper's p); fewer bits mean fewer
	// queues and a coarser cost model. Default 4.
	Precision uint

	l       float64
	seq     uint64
	entries map[string]*campEntry
	queues  map[uint64]*campQueue // keyed by Float64bits of the rounded ratio
}

// NewCAMP returns the policy with the default ratio precision.
func NewCAMP() *CAMP { return &CAMP{Precision: 4} }

// Name implements cache.Policy.
func (*CAMP) Name() string { return "camp" }

// SubclassBounds implements cache.Policy: one stack per class.
func (*CAMP) SubclassBounds() []float64 { return nil }

// Segments implements cache.Policy: no engine segment tracking.
func (*CAMP) Segments() int { return 0 }

// GhostSegments implements cache.Policy: no ghost regions.
func (*CAMP) GhostSegments() int { return 0 }

// Attach implements cache.Policy.
func (p *CAMP) Attach(c *cache.Cache) {
	p.c = c
	if p.Precision == 0 {
		p.Precision = 4
	}
	p.entries = make(map[string]*campEntry)
	p.queues = make(map[uint64]*campQueue)
}

// RoundRatio rounds r to the policy's precision: the paper's bounded-queues
// trick. Exported for the oracle test's reference implementation.
func (p *CAMP) RoundRatio(r float64) float64 {
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		return 0
	}
	frac, exp := math.Frexp(r)
	scale := math.Ldexp(1, int(p.Precision))
	return math.Ldexp(math.Round(frac*scale)/scale, exp)
}

// ratio is the item's cost/size ratio: miss penalty per byte. Items whose
// penalty is unknown (0) compete on recency alone within the zero queue.
func (p *CAMP) ratio(it *kv.Item) float64 {
	if it.Size <= 0 {
		return 0
	}
	return p.RoundRatio(it.Penalty / float64(it.Size))
}

func (p *CAMP) queueFor(r float64) *campQueue {
	k := math.Float64bits(r)
	q := p.queues[k]
	if q == nil {
		q = &campQueue{r: r}
		p.queues[k] = q
	}
	return q
}

func (p *CAMP) insert(it *kv.Item) {
	if old := p.entries[it.Key()]; old != nil {
		p.drop(old)
	}
	r := p.ratio(it)
	p.seq++
	// The mirror outlives the engine lock: a value-storing engine's key
	// aliases the item's slot, so the entry keeps a copy.
	e := &campEntry{key: strings.Clone(it.Key()), class: int(it.Class), prio: p.l + r, seq: p.seq}
	p.entries[e.key] = e
	p.queueFor(r).pushHead(e)
}

func (p *CAMP) drop(e *campEntry) {
	q := e.q
	q.remove(e)
	if q.head == nil {
		delete(p.queues, math.Float64bits(q.r))
	}
	delete(p.entries, e.key)
}

// OnInsert implements cache.Policy.
func (p *CAMP) OnInsert(it *kv.Item) { p.insert(it) }

// OnHit implements cache.Policy: the touched item is re-queued at its
// queue's head with a freshly inflated priority.
func (p *CAMP) OnHit(it *kv.Item, _ int) {
	e := p.entries[it.Key()]
	if e == nil {
		return
	}
	q := e.q
	q.remove(e)
	r := q.r
	e.prio = p.l + r
	p.seq++
	e.seq = p.seq
	e.class = int(it.Class)
	p.queueFor(r).pushHead(e)
}

// OnEvict implements cache.Policy: raise the inflation clock to the evicted
// priority (the GreedyDual aging step) and drop the mirror entry.
func (p *CAMP) OnEvict(it *kv.Item) {
	if e := p.entries[it.Key()]; e != nil {
		if e.prio > p.l {
			p.l = e.prio
		}
		p.drop(e)
	}
}

// OnRemove implements cache.RemovalObserver: non-eviction removals leave
// the clock alone.
func (p *CAMP) OnRemove(it *kv.Item) {
	if e := p.entries[it.Key()]; e != nil {
		p.drop(e)
	}
}

// OnMiss implements cache.Policy.
func (*CAMP) OnMiss(int, int, float64, int) {}

// OnWindow implements cache.Policy.
func (*CAMP) OnWindow() {}

// Victim returns the key and class of the global minimum-priority resident
// (the cheapest queue tail, sequence-number tie-break), or ok=false when
// the mirror is empty. Exported for the oracle test.
func (p *CAMP) Victim() (key string, class int, ok bool) {
	var best *campEntry
	for _, q := range p.queues {
		t := q.tail
		if t == nil {
			continue
		}
		if best == nil || t.prio < best.prio || (t.prio == best.prio && t.seq < best.seq) {
			best = t
		}
	}
	if best == nil {
		return "", -1, false
	}
	return best.key, best.class, true
}

// MakeRoom implements cache.Policy: evict globally cheapest items. When the
// cheapest victim already lives in the requesting class its slot frees the
// class directly; otherwise victims drain their own class until it can
// donate a whole slab, which then migrates over.
func (p *CAMP) MakeRoom(class, _ int) {
	c := p.c
	// Bound the drain: freeing one slab of the cheapest class costs at most
	// its slots-per-slab evictions; anything beyond that means mirror and
	// engine disagree, so fall back rather than loop.
	for guard := 0; guard < 4; guard++ {
		key, vclass, ok := p.Victim()
		if !ok {
			return
		}
		if vclass == class {
			if c.EvictKey(key) {
				return
			}
			// Stale mirror entry: drop and retry.
			if e := p.entries[key]; e != nil {
				p.drop(e)
			}
			continue
		}
		// Evict cheapest items out of vclass until it can donate a slab.
		spc := c.SlotsPerSlab(vclass)
		for i := 0; i < spc && c.FreeSlots(vclass) < spc; i++ {
			k, vc, ok := p.Victim()
			if !ok || vc != vclass {
				break
			}
			if !c.EvictKey(k) {
				if e := p.entries[k]; e != nil {
					p.drop(e)
				}
				break
			}
		}
		if c.FreeSlots(vclass) >= spc && c.Slabs(vclass) > 0 {
			if err := c.MigrateSlab(vclass, 0, class); err == nil {
				return
			}
		}
	}
}

// Interface conformance checks.
var (
	_ cache.Policy          = (*CAMP)(nil)
	_ cache.RemovalObserver = (*CAMP)(nil)
)
