// Package gds implements GreedyDual-Size-Frequency (Cherkasova, 1998), the
// classic item-granularity cost-aware replacement family, as an alternative
// engine to the slab-class cache: instead of reallocating slabs between
// size classes, GDSF ranks every item by
//
//	H(item) = L + frequency × cost / size
//
// where cost is the item's miss penalty and L is the "inflation" value —
// the H of the last evicted item — which ages resident items without
// touching them. Eviction always removes the minimum-H item.
//
// GDSF optimizes the same objective as PAMA (penalty-weighted hits per
// byte) but with per-item bookkeeping and no slab constraint, so it is the
// natural upper-ish baseline for how much of PAMA's gap to penalty-blind
// schemes is attributable to penalty awareness versus to slab mechanics.
// The baselines figure (results/fig_baselines.tsv) compares them.
package gds

import (
	"fmt"
	"sync"
)

// entry is one resident item in the heap and index.
type entry struct {
	key     string
	size    int
	penalty float64
	value   []byte
	flags   uint32
	freq    uint64
	h       float64
	heapIdx int
}

// Stats mirror the counters the simulator reports.
type Stats struct {
	Gets, Hits, Misses uint64
	Sets, Deletes      uint64
	Evictions          uint64
	TooLarge           uint64
}

// Cache is a GDSF cache bounded by total bytes. Construct with New; safe
// for concurrent use.
type Cache struct {
	mu        sync.Mutex
	capBytes  int64
	usedBytes int64
	idx       map[string]*entry
	heap      []*entry // min-heap on h
	l         float64  // inflation
	store     bool
	stats     Stats
}

// New returns a cache holding at most capBytes of item payload. storeValues
// keeps bodies (off for simulation).
func New(capBytes int64, storeValues bool) (*Cache, error) {
	if capBytes <= 0 {
		return nil, fmt.Errorf("gds: capacity %d must be positive", capBytes)
	}
	return &Cache{capBytes: capBytes, idx: make(map[string]*entry), store: storeValues}, nil
}

// Get looks key up; a hit bumps frequency and re-prices the item.
func (c *Cache) Get(key string, _ int, _ float64, buf []byte) ([]byte, uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Gets++
	e, ok := c.idx[key]
	if !ok {
		c.stats.Misses++
		return buf, 0, false
	}
	c.stats.Hits++
	e.freq++
	e.h = c.l + float64(e.freq)*e.penalty/float64(e.size)
	c.fix(e.heapIdx)
	if c.store {
		buf = append(buf, e.value...)
	}
	return buf, e.flags, true
}

// Set inserts or replaces key with the given size and miss penalty.
func (c *Cache) Set(key string, size int, pen float64, flags uint32, value []byte) error {
	if size < 1 {
		size = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Sets++
	if int64(size) > c.capBytes {
		c.stats.TooLarge++
		return fmt.Errorf("gds: item of %d bytes exceeds capacity %d", size, c.capBytes)
	}
	if e, ok := c.idx[key]; ok {
		c.usedBytes += int64(size) - int64(e.size)
		e.size = size
		e.penalty = pen
		e.flags = flags
		if c.store {
			e.value = append(e.value[:0], value...)
		}
		e.freq++
		e.h = c.l + float64(e.freq)*pen/float64(size)
		c.fix(e.heapIdx)
		c.evictOver()
		return nil
	}
	e := &entry{key: key, size: size, penalty: pen, flags: flags, freq: 1}
	if c.store {
		e.value = append([]byte(nil), value...)
	}
	e.h = c.l + pen/float64(size)
	c.idx[key] = e
	c.push(e)
	c.usedBytes += int64(size)
	c.evictOver()
	return nil
}

// Delete removes key, reporting whether it was resident.
func (c *Cache) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Deletes++
	e, ok := c.idx[key]
	if !ok {
		return false
	}
	c.removeEntry(e)
	return true
}

// Contains reports residency without touching frequency or stats.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.idx[key]
	return ok
}

// Items returns the resident count.
func (c *Cache) Items() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idx)
}

// UsedBytes returns the current payload footprint.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usedBytes
}

// Inflation returns the current aging value L.
func (c *Cache) Inflation() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CheckInvariants validates heap shape, index agreement, and accounting.
func (c *Cache) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.heap) != len(c.idx) {
		return fmt.Errorf("gds: heap %d vs index %d", len(c.heap), len(c.idx))
	}
	var used int64
	for i, e := range c.heap {
		if e.heapIdx != i {
			return fmt.Errorf("gds: entry %q heapIdx %d at position %d", e.key, e.heapIdx, i)
		}
		if c.idx[e.key] != e {
			return fmt.Errorf("gds: entry %q not indexed", e.key)
		}
		if l := 2*i + 1; l < len(c.heap) && c.heap[l].h < e.h {
			return fmt.Errorf("gds: heap order violated at %d", i)
		}
		if r := 2*i + 2; r < len(c.heap) && c.heap[r].h < e.h {
			return fmt.Errorf("gds: heap order violated at %d", i)
		}
		used += int64(e.size)
	}
	if used != c.usedBytes {
		return fmt.Errorf("gds: accounted %d bytes, tracked %d", used, c.usedBytes)
	}
	if c.usedBytes > c.capBytes {
		return fmt.Errorf("gds: over capacity: %d > %d", c.usedBytes, c.capBytes)
	}
	return nil
}

// evictOver evicts minimum-H items until within capacity, inflating L.
func (c *Cache) evictOver() {
	for c.usedBytes > c.capBytes && len(c.heap) > 0 {
		min := c.heap[0]
		c.l = min.h // aging: future insertions start at the evicted value
		c.removeEntry(min)
		c.stats.Evictions++
	}
}

func (c *Cache) removeEntry(e *entry) {
	c.usedBytes -= int64(e.size)
	delete(c.idx, e.key)
	last := len(c.heap) - 1
	i := e.heapIdx
	c.swap(i, last)
	c.heap = c.heap[:last]
	if i < last {
		c.fix(i)
	}
}

// ---- indexed binary min-heap on h ----

func (c *Cache) push(e *entry) {
	e.heapIdx = len(c.heap)
	c.heap = append(c.heap, e)
	c.up(e.heapIdx)
}

func (c *Cache) fix(i int) {
	if !c.down(i) {
		c.up(i)
	}
}

func (c *Cache) swap(i, j int) {
	if i == j {
		return
	}
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.heap[i].heapIdx = i
	c.heap[j].heapIdx = j
}

func (c *Cache) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if c.heap[parent].h <= c.heap[i].h {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *Cache) down(i int) bool {
	moved := false
	n := len(c.heap)
	for {
		small := i
		if l := 2*i + 1; l < n && c.heap[l].h < c.heap[small].h {
			small = l
		}
		if r := 2*i + 2; r < n && c.heap[r].h < c.heap[small].h {
			small = r
		}
		if small == i {
			return moved
		}
		c.swap(i, small)
		i = small
		moved = true
	}
}
