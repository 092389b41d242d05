// Package cache implements the slab-class key-value cache engine that all
// allocation policies plug into: a Memcached-style store with per-class slab
// accounting (package slab), per-subclass LRU stacks, optional bottom-region
// segment tracking (package segment), and ghost regions that remember
// recently evicted keys for incoming-value estimation (paper §III).
//
// The engine owns mechanism; policy packages own decisions. A Policy
// declares how stacks are organized (penalty subclass bounds, segments to
// track, ghost depth) and reacts to engine events (hits with segment
// attribution, misses with ghost attribution, inserts, evictions, window
// rollovers). When a SET needs a slot in a full class the engine first
// grabs a free slab if one exists; only when memory is exhausted does it
// delegate to Policy.MakeRoom, which is where the paper's schemes differ.
package cache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pamakv/internal/hashtable"
	"pamakv/internal/kv"
	"pamakv/internal/lru"
	"pamakv/internal/penalty"
	"pamakv/internal/segment"
	"pamakv/internal/slab"
)

// Sentinel errors returned by Set.
var (
	// ErrTooLarge reports an item exceeding the largest class slot.
	ErrTooLarge = errors.New("cache: item larger than largest slab class")
	// ErrNoSpace reports that no slot could be produced for the item's
	// class (class owns no slabs and nothing can be reallocated).
	ErrNoSpace = errors.New("cache: no space available for class")
)

// TrackerKind selects the segment-tracking implementation.
type TrackerKind int

const (
	// TrackerExact tags each item with its segment and keeps one boundary
	// pointer per segment (ground truth, O(m) per access).
	TrackerExact TrackerKind = iota
	// TrackerBloom uses the paper's per-segment Bloom filters.
	TrackerBloom
)

// Config parameterizes the engine.
type Config struct {
	// Geometry is the slab/class layout; zero value means
	// kv.DefaultGeometry.
	Geometry kv.Geometry
	// CacheBytes is the memory budget (must hold >= 1 slab).
	CacheBytes int64
	// StoreValues keeps item bodies, in slab pages mapped outside the Go
	// heap (values.go); off, the engine is a metadata-only simulator costing
	// a few bytes per item and mapping nothing.
	StoreValues bool
	// WindowLen is the value/statistics window in cache accesses
	// (paper: windows are counted in accesses, not wall-clock).
	WindowLen uint64
	// Tracker selects exact or Bloom segment tracking.
	Tracker TrackerKind
	// Now supplies wall-clock unix seconds for TTL expiry; nil uses
	// time.Now. Only consulted for items stored with a TTL.
	Now func() int64
	// StaleBytes > 0 retains the bytes of recently evicted or expired
	// items in a side buffer of this many bytes (keys + values +
	// overhead), so a read-through server can serve them as a degraded
	// response when its backend fails (GetStale). Requires StoreValues.
	StaleBytes int64
	// Tenant is the id stamped on every item this engine stores (0 =
	// default tenant). Under multi-tenant serving each tenant owns its own
	// engine(s); the tag lets audits prove isolation (see tenant.go).
	Tenant int32
	// AccessBuffer is ignored: every GET hit applies its maintenance under
	// the engine lock (DESIGN.md §15).
	//
	// Deprecated: the field outlives the access rings it sized only because
	// the benchmark module's traced run still sets it.
	AccessBuffer int
}

// Stats are engine-level counters; all monotonically increasing. The tags
// are each counter's one declaration (see package obs): /metrics, the in-band
// `stats` reply and the shard fan-in are derived from them.
type Stats struct {
	Gets   uint64 `prom:"pamakv_gets_total" help:"GET requests served by the engine." stat:"cmd_get"`
	Hits   uint64 `prom:"pamakv_hits_total" help:"GET requests answered from cache." stat:"get_hits"`
	Misses uint64 `prom:"pamakv_misses_total" help:"GET requests not resident." stat:"get_misses"`
	Sets   uint64 `prom:"pamakv_sets_total" help:"Store operations accepted." stat:"cmd_set"`
	// Overwrites counts the Sets that replaced a resident item in place
	// (same item, slot and index entry); Sets − Overwrites inserted one.
	Overwrites uint64 `prom:"pamakv_overwrites_total" help:"Stores that replaced a resident item in place (sets minus these inserted one)."`
	Deletes    uint64 `prom:"pamakv_deletes_total" help:"Delete operations." stat:"cmd_delete"`
	Evictions  uint64 `prom:"pamakv_evictions_total" help:"Items evicted to make room."`
	GhostHits  uint64 `prom:"pamakv_ghost_hits_total" help:"Misses whose key was in a ghost region."`
	Expired    uint64 `prom:"pamakv_expired_total" help:"Items removed by TTL expiry."`
	// StaleGets counts degraded reads served by GetStale.
	StaleGets uint64 `prom:"pamakv_stale_gets_total" help:"Reads answered from the stale buffer."`
	TooLarge  uint64 `prom:"pamakv_too_large_total" help:"Stores refused because no slab class holds the item."`
	// NoSpace counts stores refused because the item's class owned no slab
	// and the policy could free none.
	NoSpace uint64 `prom:"pamakv_no_space_total" help:"Stores refused because the item's class owns no slab and none could be freed."`
	// FallbackEvicts counts the stores that made room by evicting within
	// their class after the policy produced no slot.
	FallbackEvicts  uint64 `prom:"pamakv_fallback_evictions_total" help:"Stores that made room by an in-class eviction after the policy freed no slot."`
	WindowRollovers uint64 `prom:"pamakv_window_rollovers_total" help:"Value windows closed (one per WindowLen accesses)."`
	// SlabMigrations counts cross-class slab moves, whatever policy
	// performed them.
	SlabMigrations uint64 `prom:"pamakv_slab_migrations_total" help:"Cross-class slab moves."`
	// SlabRelocations counts the values compaction copied to another page of
	// their class to empty the page a slab migration or donation takes.
	SlabRelocations uint64 `prom:"pamakv_slab_relocations_total" help:"Values moved between pages of their class to empty a slab leaving it."`
	// SlabDonations and SlabReceipts count budget slabs this engine gave
	// to and received from other tenants via the arbiter (tenant.go).
	SlabDonations uint64 `prom:"pamakv_slab_donations_total" help:"Budget slabs given to other tenants by the arbiter."`
	SlabReceipts  uint64 `prom:"pamakv_slab_receipts_total" help:"Budget slabs received from other tenants by the arbiter."`
	// Prefetched counts the keys Prefetch loaded ahead of serving a burst;
	// PrefetchResident the ones whose probe found an item (prefetch.go).
	Prefetched       uint64 `prom:"pamakv_prefetch_keys_total" help:"Keys whose memory was loaded ahead of serving a pipelined burst."`
	PrefetchResident uint64 `prom:"pamakv_prefetch_resident_total" help:"Prefetched keys whose index probe found an item of their hash."`
}

// Policy is an allocation scheme plugged into the engine. Implementations
// live in internal/policy (baselines) and internal/core (PAMA).
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// SubclassBounds returns penalty edges dividing each class into
	// subclasses (penalty.SubclassBounds for PAMA); nil yields a single
	// subclass per class.
	SubclassBounds() []float64
	// Segments returns how many bottom segments (candidate + reference)
	// the engine must track per stack; 0 disables tracking.
	Segments() int
	// GhostSegments returns the ghost-region depth in segments
	// (receiving + reference); 0 disables ghost regions.
	GhostSegments() int
	// Attach hands the policy its engine; called once by New.
	Attach(c *Cache)
	// MakeRoom may free a slot in class through the engine's reallocation
	// primitives — migrate a slab in, or evict within the class. Called
	// with memory exhausted (no free slabs); sub is the subclass of the
	// incoming item. It may return without freeing a slot: the engine then
	// evicts the bottom of the class's most populated stack and counts it
	// in Stats.FallbackEvicts, and refuses the store (Stats.NoSpace) only
	// when the class still owns no slab.
	MakeRoom(class, sub int)
	// OnHit reports a GET hit and the bottom segment it landed in
	// (-1 when above the tracked region or tracking is off).
	OnHit(it *kv.Item, seg int)
	// OnMiss reports a GET miss. class/sub locate the would-be home of
	// the item (-1 when unknown); ghost is the ghost entry when the key
	// was recently evicted, with ghostSeg its ghost-region segment.
	OnMiss(class, sub int, ghost *kv.Item, ghostSeg int)
	// OnInsert reports a completed SET.
	OnInsert(it *kv.Item)
	// OnEvict reports an eviction (not an explicit delete).
	OnEvict(it *kv.Item)
	// OnWindow fires every WindowLen accesses, before per-window
	// counters reset.
	OnWindow()
}

// RemovalObserver is optionally implemented by policies that mirror
// resident items in their own structures (policy.CAMP). OnRemove fires,
// with the engine lock held, when a resident item leaves the cache by any
// path that is not an eviction already reported through OnEvict: explicit
// delete, TTL expiry, replacement by a new store, or flush.
type RemovalObserver interface {
	OnRemove(it *kv.Item)
}

// BatchHit was one deferred GET hit: the item and its tracked segment.
//
// Deprecated: the engine reports every hit through Policy.OnHit. The type
// remains because the benchmark module's traced run still names it.
type BatchHit struct {
	It  *kv.Item
	Seg int
}

// BatchRecorder was the batched form of Policy.OnHit.
//
// Deprecated: the engine never calls it. The interface remains because the
// benchmark module's traced run still names it.
type BatchRecorder interface {
	RecordBatch(hits []BatchHit)
}

type subclass struct {
	list  lru.List
	tr    segment.Tracker
	ghost lru.List       // oldest first: gtr's segment 0 receives evictions
	gtr   *segment.Exact // ghost segments, in each ghost's Seq
	gcap  int
}

type class struct {
	spc  int // slots per slab
	slot int // slot size in bytes
	subs []subclass
	// pages are the value pages the class owns, in address order, and vfree
	// the free slots on them, as page id<<32 | slot index (values.go).
	pages []*page
	vfree []uint64
}

// Cache is the engine. All methods are safe for concurrent use; the engine
// serializes internally (cache state is a single logical object — the lock
// is the same design point as Memcached's cache_lock).
type Cache struct {
	mu     sync.Mutex
	cfg    Config
	geom   kv.Geometry
	policy Policy
	slabs  *slab.Manager
	index  *hashtable.Table
	gindex *hashtable.Table

	classes []class
	bounds  []float64
	// arena maps the classes' value pages; nil without StoreValues.
	arena *arena

	clock   uint64
	winTick uint64
	winReqs []uint64
	winMiss []uint64

	stats Stats
	// subHits/subMiss attribute GETs to (class, penalty subclass), moves
	// counts slab migrations by [src][dst] class, and evicts/evictPen count
	// evictions and their summed penalty by subclass — the introspection
	// counters behind Introspect (see introspect.go).
	subHits  [][]uint64
	subMiss  [][]uint64
	moves    [][]uint64
	evicts   []uint64
	evictPen []float64
	pool     []*kv.Item
	// casCounter issues unique CAS tokens; incremented per store.
	casCounter uint64

	// holes[cl] is class cl's internal fragmentation: bytes of slot capacity
	// occupied by resident items but unused (slot size − item size, summed).
	// The "memory holes" a solved slot table (package geom) shrinks.
	holes []int64

	// Stale buffer (see stale.go); staleIdx nil when disabled.
	staleIdx  *hashtable.Table
	staleLst  lru.List
	staleSize int64

	// maint is the background maintainer and nowCache the coarse expiry
	// clock in unix seconds it owns (clock.go), read lock-free by expired().
	// 0 means no maintainer is running (a wall-clock read per check).
	maint    maintainer
	nowCache atomic.Int64

	// prefetchSink accumulates what Prefetch loads, so the compiler keeps
	// the loads; nothing reads it.
	prefetchSink uint64
}

// New builds an engine bound to the given policy.
func New(cfg Config, pol Policy) (*Cache, error) {
	if pol == nil {
		return nil, errors.New("cache: nil policy")
	}
	if cfg.Geometry.IsZero() {
		cfg.Geometry = kv.DefaultGeometry()
	}
	if cfg.WindowLen == 0 {
		cfg.WindowLen = 100_000
	}
	if cfg.StaleBytes > 0 && !cfg.StoreValues {
		return nil, errors.New("cache: StaleBytes requires StoreValues")
	}
	mgr, err := slab.NewManager(cfg.Geometry, cfg.CacheBytes)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:    cfg,
		geom:   cfg.Geometry,
		policy: pol,
		slabs:  mgr,
		index:  hashtable.New(1 << 12),
		gindex: hashtable.New(1 << 10),
		bounds: pol.SubclassBounds(),
	}
	nsub := len(c.bounds)
	if nsub == 0 {
		nsub = 1
	}
	c.classes = buildClasses(c.geom, nsub, pol.Segments(), pol.GhostSegments(), cfg.Tracker)
	c.resetAttribution(nsub)
	c.holes = make([]int64, c.geom.NumClasses)
	if cfg.StoreValues {
		c.arena = newArena(c.geom.SlabSize)
	}
	if cfg.StaleBytes > 0 {
		c.staleIdx = hashtable.New(1 << 8)
	}
	pol.Attach(c)
	return c, nil
}

// buildClasses constructs the per-class subclass stacks for a geometry.
func buildClasses(g kv.Geometry, nsub, nseg, gseg int, tracker TrackerKind) []class {
	classes := make([]class, g.NumClasses)
	for ci := range classes {
		cl := &classes[ci]
		cl.spc = g.SlotsPerSlab(ci)
		cl.slot = g.SlotSize(ci)
		cl.subs = make([]subclass, nsub)
		for si := range cl.subs {
			s := &cl.subs[si]
			if nseg > 0 {
				switch tracker {
				case TrackerBloom:
					s.tr = segment.NewBloom(&s.list, cl.spc, nseg)
				default:
					s.tr = segment.NewExact(&s.list, cl.spc, nseg)
				}
			}
			if gseg > 0 {
				s.gcap = gseg * cl.spc
				s.gtr = segment.NewExact(&s.ghost, cl.spc, gseg)
			}
		}
	}
	return classes
}

// resetAttribution allocates the window counters and attribution matrices
// for the geometry's dimensions.
func (c *Cache) resetAttribution(nsub int) {
	nc := c.geom.NumClasses
	c.winReqs = make([]uint64, nc)
	c.winMiss = make([]uint64, nc)
	c.subHits = make([][]uint64, nc)
	c.subMiss = make([][]uint64, nc)
	c.moves = make([][]uint64, nc)
	c.evicts = make([]uint64, nsub)
	c.evictPen = make([]float64, nsub)
	for ci := range c.subHits {
		c.subHits[ci] = make([]uint64, nsub)
		c.subMiss[ci] = make([]uint64, nsub)
		c.moves[ci] = make([]uint64, nc)
	}
}

// ---- Public request API ----

// Get looks key up. sizeHint/penHint describe the item a miss would fetch
// (replayers know them; servers pass 0) and only affect per-class miss
// attribution. When StoreValues is on and the key hits, the value is
// appended to buf.
func (c *Cache) Get(key string, sizeHint int, penHint float64, buf []byte) (val []byte, flags uint32, hit bool) {
	val, flags, _, hit = c.lookup(key, sizeHint, penHint, buf)
	return val, flags, hit
}

// GetWithCAS is Get returning the item's CAS token as well. The token
// changes on every store of the key.
func (c *Cache) GetWithCAS(key string, buf []byte) (val []byte, flags uint32, cas uint64, hit bool) {
	return c.lookup(key, 0, 0, buf)
}

// lookup is the engine's one read, applied whole under the engine lock. The
// access first advances the clock (a window it closes is closed before the
// key is looked up). A live hit then copies the value, moves the item to the
// MRU end of its stack, is attributed to its class and subclass and reaches
// the policy with the bottom segment it was found in. Anything else (absent,
// expired) is accounted as a miss; the one probe that finds an expired item
// also reaps it.
func (c *Cache) lookup(key string, sizeHint int, penHint float64, buf []byte) (val []byte, flags uint32, cas uint64, hit bool) {
	h := kv.HashString(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick()
	c.stats.Gets++
	it := c.index.Get(h, key)
	if it != nil && !c.expired(it) {
		c.stats.Hits++
		if c.cfg.StoreValues {
			buf = append(buf, it.Value...)
		}
		seg := c.touchResident(it)
		it.LastAccess = c.clock
		c.winReqs[it.Class]++
		c.subHits[it.Class][it.Sub]++
		c.policy.OnHit(it, seg)
		return buf, it.Flags, it.CAS, true
	}
	c.stats.Misses++
	if it != nil {
		c.reapLocked(it) // lazy expiry: the read that finds a dead item reaps it
	}
	var g *kv.Item
	gseg := -1
	clHint, subHint := -1, -1
	if g = c.gindex.Get(h, key); g != nil {
		c.stats.GhostHits++
		clHint, subHint = int(g.Class), int(g.Sub)
		gseg = int(g.Seq)
	} else if sizeHint > 0 {
		clHint = c.geom.ClassFor(sizeHint)
		subHint = c.subclassFor(penHint)
	}
	if clHint >= 0 {
		c.winReqs[clHint]++
		c.winMiss[clHint]++
		if subHint >= 0 {
			c.subMiss[clHint][subHint]++
		}
	}
	c.policy.OnMiss(clHint, subHint, g, gseg)
	return buf, 0, 0, false
}

// liveLocked returns the resident, unexpired item holding key, or nil. An
// expired find is reaped on the way, as in Memcached: into the stale buffer,
// no ghost entry — the value is dead, not a victim of space pressure. Every
// keyed operation finds its item here, so all agree on what is present.
// Caller holds c.mu.
func (c *Cache) liveLocked(h uint64, key string) *kv.Item {
	it := c.index.Get(h, key)
	if it != nil && c.expired(it) {
		c.reapLocked(it)
		return nil
	}
	return it
}

// reapLocked removes it, a resident found expired. Caller holds c.mu.
func (c *Cache) reapLocked(it *kv.Item) {
	c.pushStaleLocked(it)
	c.unlinkResident(it)
	c.release(it)
	c.stats.Expired++
}

// Set inserts or replaces key with the given logical size, miss penalty,
// client flags, and (when StoreValues) value bytes. The item never expires;
// use SetTTL for expiring items.
//
// The callee copies what it retains; the caller may reuse key and value when
// the call returns. With StoreValues the engine copies the key when, and only
// when, the store inserts a new item; a metadata-only engine keeps the key
// string it is handed (simulators own their keys).
func (c *Cache) Set(key string, size int, pen float64, flags uint32, value []byte) error {
	return c.SetTTL(key, size, pen, flags, 0, value)
}

// SetTTL is Set with an expiry deadline in unix seconds (0 = never).
func (c *Cache) SetTTL(key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setLocked(key, size, pen, flags, expireAt, value)
}

// setLocked is the store itself. Caller holds c.mu, so a conditional store
// (SetMode) checks its precondition and stores in one critical section.
//
// It finds the key once and changes only what the store changes. A key is
// never resident and ghosted (or stale-buffered) at once, so a resident find
// probes nothing else; a resident item of the same class is overwritten in
// place — same item, index entry and slot — while stack, tracker and policy
// see the remove-then-insert of the full path, which every other store takes
// (DESIGN.md §5).
func (c *Cache) setLocked(key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	c.tick()
	c.stats.Sets++
	return c.storeLocked(key, size, pen, flags, expireAt, value)
}

// storeLocked is setLocked without the access it counts: rewriteLocked
// re-stores a value that outgrew its slot through it. A value longer than size is charged
// its length, so it always fits its slot.
func (c *Cache) storeLocked(key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	if c.cfg.StoreValues {
		size = max(size, len(value))
	}
	cl := c.geom.ClassFor(size)
	if cl < 0 {
		c.stats.TooLarge++
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	sub := c.subclassFor(pen)
	h := kv.HashString(key)

	it := c.index.Get(h, key)
	if it != nil && int(it.Class) == cl {
		s := &c.classes[cl].subs[it.Sub]
		if s.tr != nil {
			s.tr.Remove(it)
		}
		s.list.Remove(it)
		c.holes[cl] -= int64(c.classes[cl].slot - int(it.Size))
		c.polOnRemove(it)
		c.stats.Overwrites++
		if c.cfg.StoreValues {
			it.Value = append(it.Value[:0], value...)
		}
	} else {
		if it != nil {
			// The old incarnation lives in another class: free it.
			c.unlinkResident(it)
			c.release(it)
		} else {
			// A refill supersedes any ghost memory or stale copy of the key.
			if g := c.gindex.Get(h, key); g != nil {
				c.dropGhost(g)
			}
			c.dropStaleLocked(h, key)
		}
		if err := c.takeSlotLocked(cl, sub); err != nil {
			return err
		}
		it = c.acquire()
		it.Key, it.Hash = key, h
		it.Tenant = c.cfg.Tenant
		it.Class = int32(cl)
		if c.cfg.StoreValues {
			// The one copy of a request's key: the caller may reuse its bytes.
			it.Key = strings.Clone(key)
			c.storeValue(it, cl, value)
		}
		c.index.Insert(it)
	}
	it.Size = int32(size)
	it.Penalty = pen
	it.Flags = flags
	it.Sub = int32(sub)
	it.LastAccess = c.clock
	it.ExpireAt = expireAt
	c.casCounter++
	it.CAS = c.casCounter
	c.holes[cl] += int64(c.classes[cl].slot - size)
	s := &c.classes[cl].subs[sub]
	s.list.PushFront(it)
	if s.tr != nil {
		s.tr.Insert(it)
	}
	c.policy.OnInsert(it)
	return nil
}

// takeSlotLocked occupies one slot of class cl for an item of subclass sub,
// growing the class, asking the policy for room or evicting as needed.
func (c *Cache) takeSlotLocked(cl, sub int) error {
	if c.slabs.FreeSlots(cl) == 0 {
		if c.slabs.FreeSlabs() > 0 {
			// Growth phase: grant a free slab, as Memcached does.
			_ = c.slabs.AllocSlab(cl)
			c.grantPage(cl)
		} else {
			c.policy.MakeRoom(cl, sub)
		}
	}
	if c.slabs.FreeSlots(cl) == 0 {
		// Policy produced nothing; keep the engine live by evicting
		// within the class, or fail if the class owns nothing.
		if !c.evictOneInClassLocked(cl) {
			c.stats.NoSpace++
			return fmt.Errorf("%w %d", ErrNoSpace, cl)
		}
		c.stats.FallbackEvicts++
	}
	// A slot was just guaranteed.
	return c.slabs.UseSlot(cl)
}

// Delete removes key if resident (and forgets any ghost memory of it). It
// reports whether a resident item was removed.
func (c *Cache) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick()
	c.stats.Deletes++
	h := kv.HashString(key)
	if g := c.gindex.Get(h, key); g != nil {
		c.dropGhost(g)
	}
	it := c.liveLocked(h, key)
	c.dropStaleLocked(h, key) // after the lookup: reaping an expired item leaves a stale copy
	if it == nil {
		return false
	}
	c.unlinkResident(it)
	c.release(it)
	return true
}

// Flush evicts every resident item and drops all ghost memory (the
// protocol's flush_all). Slab ownership is retained, matching Memcached,
// whose flush does not return slabs to the global pool.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ci := range c.classes {
		cl := &c.classes[ci]
		for si := range cl.subs {
			s := &cl.subs[si]
			for it := s.list.Front(); it != nil; it = s.list.Front() {
				c.unlinkResident(it)
				c.release(it)
			}
			for g := s.ghost.Front(); g != nil; g = s.ghost.Front() {
				c.dropGhost(g)
			}
		}
	}
	c.flushStaleLocked()
}

// Contains reports residency without touching LRU state or stats (tests and
// tools).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.Get(kv.HashString(key), key) != nil
}

// ---- Policy-facing primitives ----
// These are called from Policy hooks, which run with c.mu held.

// EvictBottom evicts the LRU item of (class, sub) into its ghost region,
// reporting success.
func (c *Cache) EvictBottom(class, sub int) bool {
	return c.evictBottomLocked(class, sub) != nil
}

// EvictKey evicts the resident item holding key with full eviction
// bookkeeping (stale push, stats, OnEvict, ghost entry), reporting whether
// an item was evicted.
func (c *Cache) EvictKey(key string) bool {
	it := c.index.Get(kv.HashString(key), key)
	if it == nil {
		return false
	}
	c.evictResidentLocked(it, &c.classes[it.Class].subs[it.Sub])
	return true
}

// RangeItems iterates all resident items without the engine lock (policy
// hooks hold it; audits run at a quiescent point). The callback must not
// mutate engine state and must not retain items.
func (c *Cache) RangeItems(fn func(it *kv.Item) bool) {
	c.index.Range(fn)
}

// MigrateSlab drains a slab out of (fromClass, fromSub) (drainSlabLocked),
// then moves it to toClass. This is the paper's "discard the virtual slab's
// items in their physical slabs, compact, and hand over an empty slab": with
// values stored, compact empties one of the donor's pages and toClass
// re-carves it.
func (c *Cache) MigrateSlab(fromClass, fromSub, toClass int) error {
	if fromClass == toClass {
		return fmt.Errorf("cache: migrate within class %d", fromClass)
	}
	if err := c.drainSlabLocked(fromClass, fromSub); err != nil {
		return err
	}
	if err := c.slabs.MoveSlab(fromClass, toClass); err != nil {
		return err
	}
	if c.arena != nil {
		c.carve(toClass, c.compact(fromClass))
	}
	c.moves[fromClass][toClass]++
	return nil
}

// drainSlabLocked evicts the candidate segment of (cl, sub) — and, once that
// stack runs dry, the bottoms of the class's most populated stack — until
// class cl holds one slab's worth of free slots. Every slab that leaves a
// class, to another class (MigrateSlab) or another tenant (DonateSlab), is
// drained here.
func (c *Cache) drainSlabLocked(cl, sub int) error {
	for spc := c.classes[cl].spc; c.slabs.FreeSlots(cl) < spc; {
		if c.evictBottomLocked(cl, sub) == nil {
			if sub = c.largestSub(cl); sub < 0 {
				return fmt.Errorf("cache: class %d cannot free a slab", cl)
			}
		}
	}
	return nil
}

// ---- Policy-facing accessors ----

// NumClasses returns the class count.
func (c *Cache) NumClasses() int { return c.geom.NumClasses }

// NumSubclasses returns subclasses per class.
func (c *Cache) NumSubclasses() int { return len(c.classes[0].subs) }

// SlotsPerSlab returns the slot yield of one slab in class cl.
func (c *Cache) SlotsPerSlab(cl int) int { return c.classes[cl].spc }

// Slabs returns slabs owned by class cl.
func (c *Cache) Slabs(cl int) int { return c.slabs.Slabs(cl) }

// FreeSlabs returns the unassigned slab count.
func (c *Cache) FreeSlabs() int { return c.slabs.FreeSlabs() }

// TotalSlabsBudget returns the cache's total slab budget. Like the other
// accessors here it reads without the lock; concurrent readers (the tenant
// arbiter, stats paths) must use SlabBudget instead.
func (c *Cache) TotalSlabsBudget() int { return c.slabs.TotalSlabs() }

// SlabBudget returns the total slab budget under the cache lock — safe to
// call concurrently with traffic and with slab donations.
func (c *Cache) SlabBudget() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slabs.TotalSlabs()
}

// FreeSlots returns unoccupied slots in class cl.
func (c *Cache) FreeSlots(cl int) int { return c.slabs.FreeSlots(cl) }

// UsedSlots returns occupied slots in class cl.
func (c *Cache) UsedSlots(cl int) int { return c.slabs.Used(cl) }

// SubLen returns the resident population of (class, sub).
func (c *Cache) SubLen(class, sub int) int { return c.classes[class].subs[sub].list.Len() }

// SubTail returns the LRU item of (class, sub), or nil (read-only peek).
func (c *Cache) SubTail(class, sub int) *kv.Item { return c.classes[class].subs[sub].list.Back() }

// Clock returns the access clock.
func (c *Cache) Clock() uint64 { return c.clock }

// WindowReqs returns requests attributed to class cl in the current window.
func (c *Cache) WindowReqs(cl int) uint64 { return c.winReqs[cl] }

// WindowMisses returns misses attributed to class cl in the current window.
func (c *Cache) WindowMisses(cl int) uint64 { return c.winMiss[cl] }

// Geometry returns the class geometry.
func (c *Cache) Geometry() kv.Geometry { return c.geom }

// PolicyName returns the attached policy's name.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// ---- Snapshots (taken under the lock; callers may race with traffic) ----

// SnapshotSlabs returns per-class slab counts.
func (c *Cache) SnapshotSlabs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slabs.Snapshot()
}

// SnapshotSubSlabs returns, for class cl, each subclass's slab-equivalent
// share (resident items / slots per slab) — Fig. 4's per-subclass series.
func (c *Cache) SnapshotSubSlabs(cl int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.classes[cl].subs))
	for i := range c.classes[cl].subs {
		out[i] = float64(c.classes[cl].subs[i].list.Len()) / float64(c.classes[cl].spc)
	}
	return out
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.SlabMigrations = c.slabs.Migrations
	return st
}

// HolesTotal returns the bytes lost to holes over all classes (Introspect
// carries the per-class gauge).
func (c *Cache) HolesTotal() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, h := range c.holes {
		t += h
	}
	return t
}

// Items returns the resident item count.
func (c *Cache) Items() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.Len()
}

// CheckInvariants validates engine-wide accounting; tests call it between
// operation batches.
func (c *Cache) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.slabs.CheckInvariants(); err != nil {
		return err
	}
	for _, idx := range []*hashtable.Table{c.index, c.gindex, c.staleIdx} {
		if idx == nil {
			continue
		}
		if err := idx.CheckInvariants(); err != nil {
			return err
		}
	}
	total := 0
	for ci := range c.classes {
		n := 0
		var holes int64
		for si := range c.classes[ci].subs {
			s := &c.classes[ci].subs[si]
			n += s.list.Len()
			s.list.AscendFromBack(func(it *kv.Item) bool {
				holes += int64(c.geom.SlotSize(ci) - int(it.Size))
				return true
			})
			if err := s.checkTrackers(); err != nil {
				return fmt.Errorf("cache: class %d subclass %d: %w", ci, si, err)
			}
		}
		if n != c.slabs.Used(ci) {
			return fmt.Errorf("cache: class %d lists hold %d items, slab accounting says %d",
				ci, n, c.slabs.Used(ci))
		}
		if holes != c.holes[ci] {
			return fmt.Errorf("cache: class %d holes gauge %d, lists say %d",
				ci, c.holes[ci], holes)
		}
		total += n
	}
	if err := c.checkValuesLocked(); err != nil {
		return err
	}
	if total != c.index.Len() {
		return fmt.Errorf("cache: lists hold %d items, index holds %d", total, c.index.Len())
	}
	var evicts uint64
	for _, n := range c.evicts {
		evicts += n
	}
	if evicts != c.stats.Evictions {
		return fmt.Errorf("cache: evictions by subclass sum to %d, Stats.Evictions is %d",
			evicts, c.stats.Evictions)
	}
	// setLocked and pushGhost rely on it: no key is resident and ghosted, or
	// resident and stale-buffered, at once.
	var err error
	shadowed := func(e *kv.Item) bool {
		if c.index.Get(e.Hash, e.Key) != nil {
			err = fmt.Errorf("cache: %q is resident and also a ghost or stale entry", e.Key)
		}
		return err == nil
	}
	c.gindex.Range(shadowed)
	if c.staleIdx != nil {
		c.staleIdx.Range(shadowed)
	}
	if err != nil {
		return err
	}
	if c.staleIdx != nil {
		if c.staleLst.Len() != c.staleIdx.Len() {
			return fmt.Errorf("cache: stale list holds %d entries, stale index holds %d",
				c.staleLst.Len(), c.staleIdx.Len())
		}
		if c.staleSize < 0 || (c.staleLst.Len() == 0 && c.staleSize != 0) {
			return fmt.Errorf("cache: stale byte accounting off (%d bytes, %d entries)",
				c.staleSize, c.staleLst.Len())
		}
	}
	return nil
}

// ---- Internals ----

// checkTrackers audits the exact trackers of a resident stack and its ghost
// region against walks of their lists.
func (s *subclass) checkTrackers() error {
	if ex, ok := s.tr.(*segment.Exact); ok {
		if err := ex.Check(); err != nil {
			return fmt.Errorf("stack: %w", err)
		}
	}
	if s.gtr != nil {
		if err := s.gtr.Check(); err != nil {
			return fmt.Errorf("ghost region: %w", err)
		}
	}
	return nil
}

// expired reports whether it carries a TTL that has passed. An injected
// Config.Now always wins (test clocks); otherwise the coarse cached second
// (refreshed by the maintainer) keeps the wall-clock read off the per-item
// path; an engine without a maintainer reads the wall clock per TTL'd item.
// Staleness is bounded by the maintainer's interval — well under the
// protocol's one-second TTL granularity.
func (c *Cache) expired(it *kv.Item) bool {
	if it.ExpireAt == 0 {
		return false
	}
	if now := c.cfg.Now; now != nil {
		return it.ExpireAt <= now()
	}
	if cached := c.nowCache.Load(); cached != 0 {
		return it.ExpireAt <= cached
	}
	return it.ExpireAt <= time.Now().Unix()
}

func (c *Cache) subclassFor(pen float64) int {
	if len(c.bounds) == 0 {
		return 0
	}
	return penalty.SubclassFor(pen, c.bounds)
}

func (c *Cache) tick() {
	c.clock++
	c.winTick++
	if c.winTick >= c.cfg.WindowLen {
		c.stats.WindowRollovers++
		c.policy.OnWindow()
		for ci := range c.classes {
			for si := range c.classes[ci].subs {
				if tr := c.classes[ci].subs[si].tr; tr != nil {
					tr.Rollover()
				}
			}
			c.winReqs[ci] = 0
			c.winMiss[ci] = 0
		}
		c.winTick = 0
	}
}

// touchResident moves a hit item to its stack's MRU end and returns the
// tracked segment it was found in (-1 when untracked).
func (c *Cache) touchResident(it *kv.Item) int {
	s := &c.classes[it.Class].subs[it.Sub]
	if s.tr != nil {
		return s.tr.Touch(it)
	}
	s.list.MoveToFront(it)
	return -1
}

// unlinkResident detaches a resident item from list, tracker, index, and
// slot accounting, without ghost bookkeeping, and notifies a RemovalObserver
// policy.
func (c *Cache) unlinkResident(it *kv.Item) {
	s := &c.classes[it.Class].subs[it.Sub]
	if s.tr != nil {
		s.tr.Remove(it)
	}
	s.list.Remove(it)
	c.index.Remove(it)
	_ = c.slabs.FreeSlot(int(it.Class))
	c.holes[it.Class] -= int64(c.classes[it.Class].slot - int(it.Size))
	c.polOnRemove(it)
}

func (c *Cache) polOnRemove(it *kv.Item) {
	if ro, ok := c.policy.(RemovalObserver); ok {
		ro.OnRemove(it)
	}
}

func (c *Cache) evictBottomLocked(class, sub int) *kv.Item {
	s := &c.classes[class].subs[sub]
	it := s.list.Back()
	if it == nil {
		return nil
	}
	c.evictResidentLocked(it, s)
	return it
}

// evictResidentLocked performs full eviction bookkeeping for a resident:
// stale push, unlink, stats, policy notification, ghost entry. It is the one
// place an item is evicted, so its counts hold for every policy.
func (c *Cache) evictResidentLocked(it *kv.Item, s *subclass) {
	c.pushStaleLocked(it)
	if s.tr != nil {
		s.tr.Remove(it)
	}
	s.list.Remove(it)
	c.index.Remove(it)
	_ = c.slabs.FreeSlot(int(it.Class))
	c.holes[it.Class] -= int64(c.geom.SlotSize(int(it.Class)) - int(it.Size))
	c.stats.Evictions++
	c.evicts[it.Sub]++
	c.evictPen[it.Sub] += it.Penalty
	c.policy.OnEvict(it)
	c.pushGhost(it)
}

func (c *Cache) evictOneInClassLocked(class int) bool {
	sub := c.largestSub(class)
	if sub < 0 {
		return false
	}
	return c.evictBottomLocked(class, sub) != nil
}

func (c *Cache) largestSub(class int) int {
	best, bestN := -1, 0
	for si := range c.classes[class].subs {
		if n := c.classes[class].subs[si].list.Len(); n > bestN {
			best, bestN = si, n
		}
	}
	return best
}

// pushGhost turns an evicted item into a ghost entry (key + penalty only;
// its value slot goes back to the class), or releases it when ghost regions
// are disabled.
func (c *Cache) pushGhost(it *kv.Item) {
	s := &c.classes[it.Class].subs[it.Sub]
	if s.gcap == 0 {
		c.release(it)
		return
	}
	it.Ghost = true
	c.releaseValue(it)
	// It was resident until now, so its key has no ghost entry to replace.
	c.gindex.Insert(it)
	s.ghost.PushBack(it)
	s.gtr.InsertBottom(it)
	for s.ghost.Len() > s.gcap {
		c.dropGhost(s.ghost.Front())
	}
}

// dropGhost removes a ghost entry entirely.
func (c *Cache) dropGhost(g *kv.Item) {
	s := &c.classes[g.Class].subs[g.Sub]
	s.gtr.Remove(g)
	s.ghost.Remove(g)
	c.gindex.Remove(g)
	c.releaseRaw(g)
}

func (c *Cache) acquire() *kv.Item {
	if n := len(c.pool); n > 0 {
		it := c.pool[n-1]
		c.pool = c.pool[:n-1]
		return it
	}
	return &kv.Item{}
}

// release returns a detached resident item to the pool and its value slot to
// the class's free stack.
func (c *Cache) release(it *kv.Item) {
	c.releaseValue(it)
	c.releaseRaw(it)
}

// releaseRaw pools an item that holds no slot: a ghost, or a stale-buffer
// entry whose private copy is simply dropped.
func (c *Cache) releaseRaw(it *kv.Item) {
	if len(c.pool) >= 8192 {
		return
	}
	it.Reset()
	c.pool = append(c.pool, it)
}
