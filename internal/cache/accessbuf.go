package cache

// Lock-amortized read path (Config.AccessBuffer > 0): a GET hit serves the
// value under a short critical section — lookup, coarse expiry check,
// hit/get counters, value copy — and defers all policy maintenance (LRU
// surgery, segment tracking, window attribution, policy OnHit) by recording
// the access into a lock-free MPSC ring after releasing the engine lock.
// The accumulated records are applied in one lock acquisition ("drain")
// when a ring fills, at the head of the next mutating operation, before any
// state-reporting operation (Stats, Introspect, snapshot, handoff scan,
// re-slab begin, tenant slab donation), or by the background maintainer.
// This is the BP-Wrapper recipe (also Memcached's lru-maintainer design):
// lock traffic amortizes by the batch size while policy decisions stay
// equivalent modulo a bounded reordering window (at most the ring capacity
// of accesses between occurrence and application).
//
// Safety at the seams:
//
//   - Stale references. A drained record's item pointer may have been
//     deleted, evicted (into a ghost entry or the pool), replaced or expired
//     since the access. Every record carries the item's CAS token — an
//     incarnation id issued from the engine's monotonic casCounter, zeroed
//     by Item.Reset on release — so the drain skips any record whose item
//     is a ghost or whose token no longer matches. A pooled item reused for
//     a new key carries a strictly newer token, so ABA through the item pool
//     is impossible.
//   - Window rollovers. Deferred policy hits are flushed inside tick()
//     immediately before Policy.OnWindow, so batched hits are attributed to
//     the same window they would reach in immediate mode at drain time.
//   - Reporting. Every read of deferred counters (winReqs/winMiss,
//     subHits/subMiss, Stats, Introspect, ArbiterValues, snapshots) drains
//     first, so reports never run behind the rings.

import (
	"sync"
	"time"

	"pamakv/internal/accessbuf"
	"pamakv/internal/kv"
)

// numAccessRings is the per-engine ring count; producers spread by key hash
// so concurrent getters rarely contend on one head counter.
const numAccessRings = 4

// BatchHit is one deferred GET hit handed to a BatchRecorder: the resident
// item (revalidated by the engine before batching) and the tracked bottom
// segment it landed in (-1 when untracked).
type BatchHit struct {
	It  *kv.Item
	Seg int
}

// BatchRecorder is optionally implemented by policies that accept deferred
// hits in batches. RecordBatch is called with the engine lock held and must
// be observably equivalent to calling OnHit(h.It, h.Seg) for each entry in
// order — it exists so a policy can amortize per-hit overhead, not to change
// semantics. Policies without it receive the same hits through OnHit.
type BatchRecorder interface {
	RecordBatch(hits []BatchHit)
}

// AccessBufStats reports the deferred-access machinery's counters (zero
// value with Enabled=false when Config.AccessBuffer is 0).
type AccessBufStats struct {
	// Enabled reports batched mode; Rings and RingCap give the layout (of
	// the largest engine, when a group's are summed).
	Enabled bool `json:"enabled"`
	Rings   int  `json:"rings" merge:"max"`
	RingCap int  `json:"ring_cap" merge:"max"`
	// Depth is the instantaneous number of buffered records.
	Depth int `json:"depth" prom:"pamakv_accessbuf_depth" help:"Deferred access records currently buffered in the MPSC rings."`
	// Drains counts drain passes that applied at least one record; Drained
	// the records applied; MaxBatch the largest single pass.
	Drains   uint64 `json:"drains" prom:"pamakv_accessbuf_drains_total" help:"Batched drain passes that applied at least one record."`
	Drained  uint64 `json:"drained" prom:"pamakv_accessbuf_drained_records_total" help:"Deferred access records applied under the engine lock."`
	MaxBatch uint64 `json:"max_batch" merge:"max" prom:"pamakv_accessbuf_max_batch" help:"Largest single drain pass (records per lock acquisition)."`
	// FullDrains counts drains forced by a producer finding its ring full —
	// the only time the read path waits for the engine lock; LockWaitNs is
	// the total wait it paid there.
	FullDrains uint64 `json:"full_drains" prom:"pamakv_accessbuf_full_drains_total" help:"Drains forced by a producer finding its ring full."`
	LockWaitNs uint64 `json:"lock_wait_ns" prom:"pamakv_accessbuf_lock_wait_ns_total" help:"Lock wait paid by the read path on full-ring drains."`
	// StaleRefs counts drained records skipped because the item was freed,
	// replaced, or ghosted between access and drain.
	StaleRefs uint64 `json:"stale_refs" prom:"pamakv_accessbuf_stale_refs_total" help:"Drained records skipped by the incarnation check."`
}

// accessState is the engine-side half of the machinery; embedded in Cache.
type accessState struct {
	// rings are fixed at New; nil in immediate mode. Producers push without
	// the engine lock; Drain runs only under it.
	rings    []*accessbuf.Ring
	ringMask uint64
	// pendingHits accumulates revalidated hits within one drain pass for a
	// single BatchRecorder call; always empty between drains.
	pendingHits []BatchHit
	// Counters behind AccessBufStats; all mutated under c.mu.
	abDrains, abDrained, abMaxBatch uint64
	abFullDrains, abLockWaitNs      uint64
	abStaleRefs                     uint64

	// maintMu guards maintainer start/stop; maintStop is non-nil while the
	// maintainer goroutine runs.
	maintMu   sync.Mutex
	maintStop chan struct{}
	maintWG   sync.WaitGroup
}

// initAccessBuf wires the rings when cfg.AccessBuffer > 0 (called by New).
func (c *Cache) initAccessBuf(capacity int) {
	if capacity <= 0 {
		return
	}
	c.rings = make([]*accessbuf.Ring, numAccessRings)
	for i := range c.rings {
		c.rings[i] = accessbuf.New(capacity)
	}
	c.ringMask = numAccessRings - 1
	c.pendingHits = make([]BatchHit, 0, numAccessRings*c.rings[0].Cap())
}

// Batched reports whether the engine defers read-path policy maintenance.
func (c *Cache) Batched() bool { return c.rings != nil }

// record publishes one deferred access. Called WITHOUT c.mu held (the fast
// path unlocks first); h is the item's key hash captured under the lock.
// When the target ring is full the producer becomes the drainer: it takes
// the engine lock once and applies everyone's backlog — this is the only
// point where the batched read path waits on the lock, and the wait is
// measured into LockWaitNs.
func (c *Cache) record(h uint64, rec accessbuf.Record) {
	r := c.rings[(h>>32)&c.ringMask]
	for !r.Push(rec) {
		t0 := time.Now()
		c.mu.Lock()
		wait := time.Since(t0)
		c.abFullDrains++
		c.abLockWaitNs += uint64(wait.Nanoseconds())
		c.drainLocked()
		c.mu.Unlock()
	}
}

// buffered returns the approximate backlog across all rings (no lock).
func (c *Cache) buffered() int {
	n := 0
	for _, r := range c.rings {
		n += r.Len()
	}
	return n
}

// drainLocked applies every buffered access record. Caller holds c.mu.
// No-op in immediate mode, and cheap (4 atomic loads) when rings are empty,
// so every mutating/reporting operation calls it unconditionally at entry.
func (c *Cache) drainLocked() {
	if c.rings == nil {
		return
	}
	n := 0
	for _, r := range c.rings {
		n += r.Drain(c.applyAccessLocked)
	}
	if n == 0 {
		return
	}
	c.flushPolicyHitsLocked()
	c.abDrains++
	c.abDrained += uint64(n)
	if uint64(n) > c.abMaxBatch {
		c.abMaxBatch = uint64(n)
	}
}

// applyAccessLocked replays one deferred access as the immediate path would
// have run it: advance the access clock (which may roll the window), then —
// if the item is still the same incarnation — touch recency/segment state and
// attribute the hit.
func (c *Cache) applyAccessLocked(rec accessbuf.Record) {
	c.tick()
	it := rec.It
	if it.Ghost || it.CAS != rec.CAS {
		c.abStaleRefs++
		return
	}
	seg := c.touchResident(it)
	it.LastAccess = c.clock
	c.winReqs[it.Class]++
	c.subHits[it.Class][it.Sub]++
	c.pendingHits = append(c.pendingHits, BatchHit{It: it, Seg: seg})
}

// flushPolicyHitsLocked hands accumulated hits to the policy — one
// RecordBatch call when the policy batches, a per-hit OnHit loop otherwise.
// Called at the end of a drain pass and by tick() immediately before
// Policy.OnWindow, so deferred hits never straddle a rollover. The slice is
// detached before the calls so policy hooks that re-enter the flush (none
// do today) cannot double-apply.
func (c *Cache) flushPolicyHitsLocked() {
	if len(c.pendingHits) == 0 {
		return
	}
	hits := c.pendingHits
	c.pendingHits = c.pendingHits[:0]
	if br, ok := c.policy.(BatchRecorder); ok {
		br.RecordBatch(hits)
		return
	}
	for i := range hits {
		c.policy.OnHit(hits[i].It, hits[i].Seg)
	}
}

// AccessBufStats snapshots the deferred-access counters. Like every other
// reporting path it drains first, so Drained/StaleRefs include everything
// buffered at the time of the call.
func (c *Cache) AccessBufStats() AccessBufStats {
	if c.rings == nil {
		return AccessBufStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainLocked()
	return AccessBufStats{
		Enabled:    true,
		Rings:      len(c.rings),
		RingCap:    c.rings[0].Cap(),
		Depth:      c.buffered(),
		Drains:     c.abDrains,
		Drained:    c.abDrained,
		MaxBatch:   c.abMaxBatch,
		FullDrains: c.abFullDrains,
		LockWaitNs: c.abLockWaitNs,
		StaleRefs:  c.abStaleRefs,
	}
}

// ---- Background maintainer ----

// StartMaintainer launches the engine's background maintainer goroutine: it
// refreshes the coarse expiry clock and drains idle rings every interval
// (default 10ms), so deferred state is applied even when traffic stops
// below the ring-fill threshold. The maintainer alone owns the coarse clock
// (nowCache): warm from here until StopMaintainer, never touched by a drain,
// and never set on an engine with an injected Config.Now. Idempotent while
// running; pair with StopMaintainer.
func (c *Cache) StartMaintainer(interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	c.maintMu.Lock()
	defer c.maintMu.Unlock()
	if c.maintStop != nil {
		return
	}
	if c.cfg.Now == nil {
		c.nowCache.Store(time.Now().Unix())
	}
	stop := make(chan struct{})
	c.maintStop = stop
	c.maintWG.Add(1)
	go func() {
		defer c.maintWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if c.cfg.Now == nil {
					c.nowCache.Store(time.Now().Unix())
				}
				if c.rings != nil && c.buffered() > 0 {
					c.mu.Lock()
					c.drainLocked()
					c.mu.Unlock()
				}
			}
		}
	}()
}

// StopMaintainer stops the maintainer goroutine and waits for it to exit,
// then applies any remaining backlog and resets the coarse clock (so an
// engine without a maintainer falls back to per-check wall-clock reads
// instead of serving TTLs against a frozen timestamp).
func (c *Cache) StopMaintainer() {
	c.maintMu.Lock()
	stop := c.maintStop
	c.maintStop = nil
	c.maintMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	c.maintWG.Wait()
	if c.rings != nil {
		c.mu.Lock()
		c.drainLocked()
		c.mu.Unlock()
	}
	c.nowCache.Store(0)
}
