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
	"math"
	"sync"

	"pamakv/internal/hashtable"
	"pamakv/internal/kv"
	"pamakv/internal/lru"
	"pamakv/internal/obs"
	"pamakv/internal/penalty"
	"pamakv/internal/segment"
	"pamakv/internal/slab"
	"pamakv/internal/valuetable"
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
	// heap (values.go), each item's record, key and value charged to its
	// slot; off, the engine is a metadata-only simulator costing its records
	// and keys and mapping nothing. A value-storing geometry's slots are
	// multiples of 8 bytes, the smallest one at least a record's 64, and its
	// slabs hold at most 1<<14 of them (mapRecords).
	StoreValues bool
	// WindowLen is the value/statistics window in cache accesses
	// (paper: windows are counted in accesses, not wall-clock).
	WindowLen uint64
	// Tracker selects exact or Bloom segment tracking.
	Tracker TrackerKind
	// Now supplies wall-clock unix seconds for TTL expiry; nil uses the
	// process's coarse clock, obs.Unix. Only consulted for items stored
	// with a TTL.
	Now func() int64
	// Stale, when set, receives the bytes of recently evicted or expired
	// items, so a read-through server can serve them as a degraded
	// response when its backend fails (GetStale; stale.go). Every engine
	// of a node shares the one table. Requires StoreValues.
	Stale *valuetable.Table
	// Tenant is the id of the tenant whose items this engine stores (0 =
	// default tenant). Under multi-tenant serving each tenant owns its own
	// engine(s); the tag lets audits prove isolation (tenant.CheckIsolation).
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
	// (-1 when above the tracked region or tracking is off). An item handed
	// to a hook is the engine's record, valid under the engine lock: its Key
	// aliases the engine's bytes, so a policy that keeps a key past the hook
	// copies it.
	OnHit(it *kv.Item, seg int)
	// OnMiss reports a GET miss. class/sub locate the would-be home of
	// the item (-1 when unknown). When the key was recently evicted,
	// ghostSeg is its ghost's segment and ghostPen the penalty it was
	// evicted with; otherwise ghostSeg is -1.
	OnMiss(class, sub int, ghostPen float64, ghostSeg int)
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
	ghost ghostRegion // its records live in Cache.ghosts (ghost.go)
}

type class struct {
	spc  int // slots per slab
	slot int // slot size in bytes
	subs []subclass
	// pages are the value pages the class owns and vfree the ids of the free
	// slots on them (values.go).
	pages []*page
	vfree []uint32
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
	// recs names the resident items' records by id for the index, the LRU
	// stacks and the trackers: the value pages' slots with StoreValues
	// (values.go), else chunks that hold each key as well
	// (kv.Records.HoldKey).
	recs   kv.Records
	index  *hashtable.Table
	ghosts ghostTable

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
	// casCounter issues unique CAS tokens; incremented per store.
	casCounter uint64

	// holes[cl] is class cl's internal fragmentation: bytes of slot capacity
	// occupied by resident items but unused (slot size − item size, summed).
	// The "memory holes" a solved slot table (package geom) shrinks.
	holes []int64

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
	if cfg.Stale != nil && !cfg.StoreValues {
		return nil, errors.New("cache: Stale requires StoreValues")
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
		bounds: pol.SubclassBounds(),
	}
	nsub := len(c.bounds)
	if nsub == 0 {
		nsub = 1
	}
	if cfg.Geometry.NumClasses > math.MaxUint8+1 || nsub > math.MaxUint8+1 {
		return nil, fmt.Errorf("cache: %d classes × %d subclasses overflow a record's 8-bit class and subclass",
			cfg.Geometry.NumClasses, nsub)
	}
	if gseg := pol.GhostSegments(); gseg > 0 && (cfg.Geometry.NumClasses*nsub > 1<<16 || gseg >= 1<<16) {
		return nil, fmt.Errorf("cache: %d classes × %d subclasses with %d ghost segments overflow a ghost's 16-bit tags",
			cfg.Geometry.NumClasses, nsub, gseg)
	}
	if cfg.StoreValues {
		if err := c.mapRecords(); err != nil {
			return nil, err
		}
	}
	c.index = hashtable.New(&c.recs, 1<<12)
	c.classes = buildClasses(&c.recs, c.geom, nsub, pol.Segments(), pol.GhostSegments(), cfg.Tracker)
	c.resetAttribution(nsub)
	c.holes = make([]int64, c.geom.NumClasses)
	if cfg.StoreValues {
		c.arena = newArena(c.geom.SlabSize)
	}
	pol.Attach(c)
	return c, nil
}

// mapRecords checks that the geometry fits a value-storing engine: a slot is
// charged for its item's record and the slot's room starts on a word, a
// page's slots, class 0's the most, are indexed by a record id's kv.PageBits
// low bits, and its high ones must name every slab of the budget.
func (c *Cache) mapRecords() error {
	for cl := range c.geom.NumClasses {
		if s := c.geom.SlotSize(cl); s < itemHeader || s%8 != 0 {
			return fmt.Errorf("cache: a %d-byte slot of class %d cannot hold an item's %d-byte record, 8-byte aligned",
				s, cl, itemHeader)
		}
	}
	if n := c.geom.SlotsPerSlab(0); n > 1<<kv.PageBits {
		return fmt.Errorf("cache: %d slots of class 0 in a slab overflow the %d bits a record id has for them", n, kv.PageBits)
	}
	if n := c.slabs.TotalSlabs(); n >= 1<<(32-kv.PageBits) {
		return fmt.Errorf("cache: %d slabs overflow the %d bits a record id has for them", n, 32-kv.PageBits)
	}
	return nil
}

// buildClasses constructs the per-class subclass stacks for a geometry.
func buildClasses(recs *kv.Records, g kv.Geometry, nsub, nseg, gseg int, tracker TrackerKind) []class {
	classes := make([]class, g.NumClasses)
	for ci := range classes {
		cl := &classes[ci]
		cl.spc = g.SlotsPerSlab(ci)
		cl.slot = g.SlotSize(ci)
		cl.subs = make([]subclass, nsub)
		for si := range cl.subs {
			s := &cl.subs[si]
			s.list = lru.New(recs)
			if nseg > 0 {
				switch tracker {
				case TrackerBloom:
					s.tr = segment.NewBloom(&s.list, cl.spc, nseg)
				default:
					s.tr = segment.NewExact(&s.list, cl.spc, nseg)
				}
			}
			if gseg > 0 {
				s.ghost = newRegion(cl.spc, gseg)
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
//
// Every keyed entry point has a form that takes the key's kv.HashString hash
// as well (LookupHash, SetModeHash, ...), for a caller that already hashed
// the key to route it (shard.Group); the string forms hash and call it.
func (c *Cache) Get(key string, sizeHint int, penHint float64, buf []byte) (val []byte, flags uint32, hit bool) {
	val, flags, _, hit = c.LookupHash(kv.HashString(key), key, sizeHint, penHint, buf)
	return val, flags, hit
}

// GetWithCAS is Get returning the item's CAS token as well. The token
// changes on every store of the key.
func (c *Cache) GetWithCAS(key string, buf []byte) (val []byte, flags uint32, cas uint64, hit bool) {
	return c.LookupHash(kv.HashString(key), key, 0, 0, buf)
}

// LookupHash is the engine's one read, Get and GetWithCAS in one, for key
// hashed to h. It is applied whole under the engine lock. The access first
// advances the clock (a window it closes is closed before the key is looked
// up). A live hit then copies the value, moves the item to the
// MRU end of its stack, is attributed to its class and subclass and reaches
// the policy with the bottom segment it was found in. Anything else (absent,
// expired) is accounted as a miss; the one probe that finds an expired item
// also reaps it.
func (c *Cache) LookupHash(h uint64, key string, sizeHint int, penHint float64, buf []byte) (val []byte, flags uint32, cas uint64, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick()
	c.stats.Gets++
	id, it := c.find(h, key)
	if it != nil && !c.expired(it) {
		c.stats.Hits++
		if c.cfg.StoreValues {
			buf = append(buf, it.Value()...)
		}
		seg := c.touchResident(id, it)
		c.winReqs[it.Class]++
		c.subHits[it.Class][it.Sub]++
		c.policy.OnHit(it, seg)
		return buf, it.Flags, it.CAS, true
	}
	c.stats.Misses++
	if it != nil {
		c.reapLocked(id, it) // lazy expiry: the read that finds a dead item reaps it
	}
	gseg, gpen := -1, 0.0
	clHint, subHint := -1, -1
	if i := c.ghosts.find(h); i != 0 {
		g := &c.ghosts.recs[i]
		c.stats.GhostHits++
		clHint, subHint = c.subOf(g.owner)
		gseg, gpen = int(g.seg), g.pen
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
	c.policy.OnMiss(clHint, subHint, gpen, gseg)
	return buf, 0, 0, false
}

// find returns the resident item holding key and its id, or (0, nil).
func (c *Cache) find(h uint64, key string) (uint32, *kv.Item) {
	if id := c.index.Get(h, key); id != 0 {
		return id, c.recs.At(id)
	}
	return 0, nil
}

// liveLocked returns the resident, unexpired item holding key and its id, or
// (0, nil). An expired find is reaped on the way, as in Memcached: into the
// stale buffer, no ghost entry — the value is dead, not a victim of space
// pressure. Every keyed operation finds its item here, so all agree on what
// is present. Caller holds c.mu.
func (c *Cache) liveLocked(h uint64, key string) (uint32, *kv.Item) {
	id, it := c.find(h, key)
	if it != nil && c.expired(it) {
		c.reapLocked(id, it)
		return 0, nil
	}
	return id, it
}

// reapLocked removes it, a resident found expired. Caller holds c.mu.
func (c *Cache) reapLocked(id uint32, it *kv.Item) {
	c.pushStaleLocked(it)
	c.unlinkResident(id, it)
	c.release(id, it)
	c.stats.Expired++
}

// Set inserts or replaces key with the given logical size, miss penalty,
// client flags, and (when StoreValues) value bytes. The item never expires;
// use SetTTL for expiring items.
//
// The callee copies what it retains; the caller may reuse key and value when
// the call returns. With StoreValues the engine copies the key into the
// item's value slot, ahead of the value, and charges the item at least their
// combined length; a metadata-only engine keeps the key string it is handed
// (simulators own their keys). A key longer than kv.MaxKeyLen is refused with
// ErrTooLarge.
func (c *Cache) Set(key string, size int, pen float64, flags uint32, value []byte) error {
	return c.SetTTL(key, size, pen, flags, 0, value)
}

// SetTTL is Set with an expiry deadline in unix seconds (0 = never).
func (c *Cache) SetTTL(key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setLocked(kv.HashString(key), key, size, pen, flags, expireAt, value)
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
func (c *Cache) setLocked(h uint64, key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	c.tick()
	c.stats.Sets++
	return c.storeLocked(h, key, size, pen, flags, expireAt, value)
}

// storeLocked is setLocked without the access it counts: rewriteLocked
// re-stores a value that outgrew its slot through it. With StoreValues an item
// is charged at least its record, key and value, which share its slot, so they
// always fit it.
func (c *Cache) storeLocked(h uint64, key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	if c.cfg.StoreValues {
		size = max(size, itemHeader+len(key)+len(value))
	}
	cl := c.geom.ClassFor(size)
	if cl < 0 || len(key) > kv.MaxKeyLen {
		c.stats.TooLarge++
		return fmt.Errorf("%w: %d bytes, key %d", ErrTooLarge, size, len(key))
	}
	sub := c.subclassFor(pen)
	id, it := c.find(h, key)
	if it != nil && int(it.Class) == cl {
		s := &c.classes[cl].subs[it.Sub]
		if s.tr != nil {
			s.tr.Remove(id)
		}
		s.list.Remove(id)
		c.holes[cl] -= int64(c.classes[cl].slot - int(it.Size))
		c.polOnRemove(it)
		c.stats.Overwrites++
		if c.cfg.StoreValues {
			it.VLen = uint32(copy(it.Mem(c.classes[cl].slot - itemHeader)[it.KLen:], value))
		}
	} else {
		if it != nil {
			// The old incarnation lives in another class: free it.
			c.unlinkResident(id, it)
			c.release(id, it)
		} else {
			// A refill supersedes any ghost memory or stale copy of the key.
			c.dropGhost(h)
			c.dropStaleLocked(h, key)
		}
		if err := c.takeSlotLocked(cl, sub); err != nil {
			return err
		}
		if c.arena != nil {
			// The key goes into the slot ahead of the value: the caller may
			// reuse its bytes.
			id, it = c.storeValue(cl, key, value)
		} else {
			id, it = c.recs.New()
			c.recs.HoldKey(id, key)
		}
		it.Hash = h
		it.Class = uint8(cl)
		c.index.Insert(id)
	}
	it.Size = int32(size)
	it.Penalty = pen
	it.Flags = flags
	it.Sub = uint8(sub)
	it.ExpireAt = kv.Deadline(expireAt)
	c.casCounter++
	it.CAS = c.casCounter
	c.holes[cl] += int64(c.classes[cl].slot - size)
	s := &c.classes[cl].subs[sub]
	s.list.PushFront(id)
	if s.tr != nil {
		s.tr.Insert(id)
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
func (c *Cache) Delete(key string) bool { return c.DeleteHash(kv.HashString(key), key) }

// DeleteHash is Delete for key hashed to h.
func (c *Cache) DeleteHash(h uint64, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick()
	c.stats.Deletes++
	c.dropGhost(h)
	id, it := c.liveLocked(h, key)
	c.dropStaleLocked(h, key) // after the lookup: reaping an expired item leaves a stale copy
	if it == nil {
		return false
	}
	c.unlinkResident(id, it)
	c.release(id, it)
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
			for id := s.list.Front(); id != 0; id = s.list.Front() {
				it := c.recs.At(id)
				c.unlinkResident(id, it)
				c.release(id, it)
			}
			s.ghost.reset()
		}
	}
	c.ghosts.reset()
	c.flushStaleLocked()
}

// Contains reports residency without touching LRU state or stats (tests and
// tools).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.Get(kv.HashString(key), key) != 0
}

// ---- Policy-facing primitives ----
// These are called from Policy hooks, which run with c.mu held.

// EvictBottom evicts the LRU item of (class, sub) into its ghost region,
// reporting success.
func (c *Cache) EvictBottom(class, sub int) bool {
	return c.evictBottomLocked(class, sub)
}

// EvictKey evicts the resident item holding key with full eviction
// bookkeeping (stale push, stats, OnEvict, ghost entry), reporting whether
// an item was evicted.
func (c *Cache) EvictKey(key string) bool {
	id, it := c.find(kv.HashString(key), key)
	if it == nil {
		return false
	}
	c.evictResidentLocked(id, it, &c.classes[it.Class].subs[it.Sub])
	return true
}

// RangeItems iterates all resident items without the engine lock (policy
// hooks hold it; audits run at a quiescent point). The callback must not
// mutate engine state and must not retain items.
func (c *Cache) RangeItems(fn func(it *kv.Item) bool) {
	c.index.Range(func(_ uint32, it *kv.Item) bool { return fn(it) })
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
		if !c.evictBottomLocked(cl, sub) {
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

// Clock returns the access clock.
func (c *Cache) Clock() uint64 { return c.clock }

// WindowReqs returns requests attributed to class cl in the current window.
func (c *Cache) WindowReqs(cl int) uint64 { return c.winReqs[cl] }

// WindowMisses returns misses attributed to class cl in the current window.
func (c *Cache) WindowMisses(cl int) uint64 { return c.winMiss[cl] }

// Geometry returns the class geometry.
func (c *Cache) Geometry() kv.Geometry { return c.geom }

// Tenant returns the id of the tenant whose items the engine stores
// (Config.Tenant).
func (c *Cache) Tenant() int32 { return c.cfg.Tenant }

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
	if err := c.index.CheckInvariants(); err != nil {
		return err
	}
	total, ghosts := 0, 0
	for ci := range c.classes {
		n := 0
		var holes int64
		for si := range c.classes[ci].subs {
			s := &c.classes[ci].subs[si]
			n += s.list.Len()
			s.list.AscendFromBack(func(_ uint32, it *kv.Item) bool {
				holes += int64(c.geom.SlotSize(ci) - int(it.Size))
				return true
			})
			if ex, ok := s.tr.(*segment.Exact); ok {
				if err := ex.Check(); err != nil {
					return fmt.Errorf("cache: class %d subclass %d: stack: %w", ci, si, err)
				}
			}
			if err := c.checkGhostsLocked(&s.ghost, c.ownerOf(ci, si)); err != nil {
				return fmt.Errorf("cache: class %d subclass %d: ghost region: %w", ci, si, err)
			}
			ghosts += s.ghost.n
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
	if total != c.index.Len() || c.arena == nil && total != c.recs.Len() {
		return fmt.Errorf("cache: lists hold %d items, index holds %d, %d records are in use",
			total, c.index.Len(), c.recs.Len())
	}
	var evicts uint64
	for _, n := range c.evicts {
		evicts += n
	}
	if evicts != c.stats.Evictions {
		return fmt.Errorf("cache: evictions by subclass sum to %d, Stats.Evictions is %d",
			evicts, c.stats.Evictions)
	}
	if ghosts != c.ghosts.n {
		return fmt.Errorf("cache: ghost regions hold %d ghosts, the ghost index %d", ghosts, c.ghosts.n)
	}
	// setLocked relies on it, as pushGhost does for ghosts: no key is
	// resident and in the stale table at once.
	var err error
	if c.cfg.Stale != nil {
		c.index.Range(func(_ uint32, it *kv.Item) bool {
			if c.cfg.Stale.Contains(it.Hash, it.Key()) {
				err = fmt.Errorf("cache: %q is resident and also a stale entry", it.Key())
			}
			return err == nil
		})
	}
	return err
}

// ---- Internals ----

// checkGhostsLocked audits a ghost region (ghostTable.check) and the rule
// setLocked and pushGhost rely on: no key is resident and ghosted at once. A
// ghost has only its key's hash, so no resident may have it.
func (c *Cache) checkGhostsLocked(r *ghostRegion, owner uint16) error {
	if err := c.ghosts.check(r, owner); err != nil {
		return err
	}
	for i := r.newest; i != 0; i = c.ghosts.recs[i].older {
		if id := c.index.FindHash(c.ghosts.recs[i].hash); id != 0 {
			return fmt.Errorf("%q is resident and also a ghost", c.recs.At(id).Key())
		}
	}
	return nil
}

// expired reports whether it carries a TTL that has passed. An injected
// Config.Now wins (test clocks); otherwise the process's coarse clock
// (obs.Unix) keeps the wall-clock read off the per-item path. It is at most
// a tick (10 ms) stale, well under the protocol's one-second granularity.
func (c *Cache) expired(it *kv.Item) bool {
	if it.ExpireAt == 0 {
		return false
	}
	at := int64(it.ExpireAt)
	if now := c.cfg.Now; now != nil {
		return at <= now()
	}
	return at <= obs.Unix()
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
		if c.ghosts.sparse() {
			var rs []*ghostRegion
			for ci := range c.classes {
				for si := range c.classes[ci].subs {
					rs = append(rs, &c.classes[ci].subs[si].ghost)
				}
			}
			c.ghosts.shrink(rs)
		}
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
func (c *Cache) touchResident(id uint32, it *kv.Item) int {
	s := &c.classes[it.Class].subs[it.Sub]
	if s.tr != nil {
		return s.tr.Touch(id)
	}
	s.list.MoveToFront(id)
	return -1
}

// unlinkResident detaches a resident item from list, tracker, index, and
// slot accounting, without ghost bookkeeping, and notifies a RemovalObserver
// policy.
func (c *Cache) unlinkResident(id uint32, it *kv.Item) {
	s := &c.classes[it.Class].subs[it.Sub]
	if s.tr != nil {
		s.tr.Remove(id)
	}
	s.list.Remove(id)
	c.index.Remove(id)
	_ = c.slabs.FreeSlot(int(it.Class))
	c.holes[it.Class] -= int64(c.classes[it.Class].slot - int(it.Size))
	c.polOnRemove(it)
}

func (c *Cache) polOnRemove(it *kv.Item) {
	if ro, ok := c.policy.(RemovalObserver); ok {
		ro.OnRemove(it)
	}
}

// evictBottomLocked evicts the LRU item of (class, sub), reporting whether
// the stack held one.
func (c *Cache) evictBottomLocked(class, sub int) bool {
	s := &c.classes[class].subs[sub]
	id := s.list.Back()
	if id == 0 {
		return false
	}
	c.evictResidentLocked(id, c.recs.At(id), s)
	return true
}

// evictResidentLocked performs full eviction bookkeeping for a resident:
// stale push, unlink, stats, policy notification, ghost entry. It is the one
// place an item is evicted, so its counts hold for every policy.
func (c *Cache) evictResidentLocked(id uint32, it *kv.Item, s *subclass) {
	c.pushStaleLocked(it)
	if s.tr != nil {
		s.tr.Remove(id)
	}
	s.list.Remove(id)
	c.index.Remove(id)
	_ = c.slabs.FreeSlot(int(it.Class))
	c.holes[it.Class] -= int64(c.geom.SlotSize(int(it.Class)) - int(it.Size))
	c.stats.Evictions++
	c.evicts[it.Sub]++
	c.evictPen[it.Sub] += it.Penalty
	c.policy.OnEvict(it)
	c.pushGhost(id, it)
}

func (c *Cache) evictOneInClassLocked(class int) bool {
	sub := c.largestSub(class)
	if sub < 0 {
		return false
	}
	return c.evictBottomLocked(class, sub)
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

// pushGhost remembers an evicted item's hash and penalty in its subclass's
// ghost region, when the policy keeps one, and releases the item.
func (c *Cache) pushGhost(id uint32, it *kv.Item) {
	if s := &c.classes[it.Class].subs[it.Sub]; s.ghost.cap > 0 {
		// It was resident until now, so its key has no ghost to replace.
		c.ghosts.push(&s.ghost, c.ownerOf(int(it.Class), int(it.Sub)), it.Hash, it.Penalty)
	}
	c.release(id, it)
}

// dropGhost forgets the ghost of hash h, if there is one.
func (c *Cache) dropGhost(h uint64) {
	if i := c.ghosts.find(h); i != 0 {
		cl, sub := c.subOf(c.ghosts.recs[i].owner)
		c.ghosts.remove(&c.classes[cl].subs[sub].ghost, i)
	}
}

// ownerOf and subOf convert between (class, subclass) and a ghost's owner.
func (c *Cache) ownerOf(cl, sub int) uint16 { return uint16(cl*len(c.classes[0].subs) + sub) }

func (c *Cache) subOf(owner uint16) (cl, sub int) {
	n := len(c.classes[0].subs)
	return int(owner) / n, int(owner) % n
}

// release returns a detached resident's slot to its class's free stack, or
// its record to the store in a metadata-only engine.
func (c *Cache) release(id uint32, it *kv.Item) {
	if c.arena != nil {
		c.releaseSlot(id, it)
		return
	}
	c.recs.Free(id)
}
