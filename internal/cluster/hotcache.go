package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pamakv/internal/kv"
	"pamakv/internal/obs"
)

// HotCache defaults: a few MiB catches the hot head of a Zipf workload
// without meaningfully competing with the main engine's slab budget, and a
// one-second TTL bounds how stale a forwarded copy can get when another
// node writes the key.
const (
	DefaultHotCacheBytes = 4 << 20
	DefaultHotCacheTTL   = time.Second
)

// HotCache is a non-owner's mini-cache of forwarded peer hits: a small,
// byte-budgeted LRU with a hard TTL. It absorbs repeat reads of hot remote
// keys, so a skewed workload does not turn the owner of the hottest key
// into the cluster's bottleneck (the Memshare/groupcache "hot item"
// argument). Entries are advisory — a hit may be up to TTL stale relative
// to the owner — so the cache is consulted only for plain GETs, never for
// gets/cas.
//
// The entries live in one slice, linked into the LRU list by index, and
// the index maps a key's 64-bit hash to its entry: after warm-up neither a
// lookup nor a store allocates. A hit compares the key with the entry's
// own copy, so a hash collision is a miss, and a Put of the colliding key
// replaces the entry. The index is an open-addressing table probed
// linearly from the hash's low bits, at most three quarters full: a
// lookup is one load of a slot, usually, where a Go map takes a call and
// several dependent loads, and the burst prefetch can keep many of them in
// flight at once.
type HotCache struct {
	maxBytes int64
	ttl      time.Duration
	// now reads the clock deadlines are set on, in nanoseconds; stubbed
	// by tests.
	now func() int64

	mu    sync.Mutex
	index []hotSlot // kv.HashString(key) → slot in ents; a power of two long
	ents  []hotEntry
	// head and tail are the most and least recently used entries, free
	// the first free slot (chained through next); noSlot when there is none.
	head, tail, free int32
	items            int
	bytes            int64

	// sink keeps PrefetchHashes' loads: they are summed into it under mu.
	sink int32

	// ctr is the live counter set, bumped with atomic.AddUint64 and
	// loaded by Stats (obs.Load).
	ctr *HotCacheCounters
}

// noSlot ends the LRU and free lists.
const noSlot = -1

// hotSlot is one slot of the index: a key's hash and its entry.
type hotSlot struct {
	hash uint64
	ent  int32 // the entry's slot in ents + 1; 0 marks an empty slot
}

// minIndexSlots is the index's starting length.
const minIndexSlots = 64

// clockBase anchors monoNanos. time.Since of a time carrying a monotonic
// reading reads only the monotonic clock, half the cost of time.Now.
var clockBase = time.Now()

func monoNanos() int64 { return int64(time.Since(clockBase)) }

// hotEntry is one cached value with its expiry deadline. buf holds the key
// and then the value; a later Put into the slot reuses it.
type hotEntry struct {
	buf        []byte
	klen       int32
	flags      uint32
	hash       uint64
	deadline   int64 // on the now clock
	prev, next int32
}

// hotSlack is how far a slot's buffer may exceed twice what it holds
// before a Put gives it a fitting one, so a slot that once held a large
// value does not pin it under small ones.
const hotSlack = 64

// NewHotCache builds a hot cache with the given byte budget and TTL
// (defaults apply for values <= 0).
func NewHotCache(maxBytes int64, ttl time.Duration) *HotCache {
	if maxBytes <= 0 {
		maxBytes = DefaultHotCacheBytes
	}
	if ttl <= 0 {
		ttl = DefaultHotCacheTTL
	}
	return &HotCache{
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      monoNanos,
		index:    make([]hotSlot, minIndexSlots),
		head:     noSlot,
		tail:     noSlot,
		free:     noSlot,
		ctr:      new(HotCacheCounters),
	}
}

// Get appends key's value to dst if it is cached and fresh, and returns
// the extended buffer (dst itself on a miss).
func (h *HotCache) Get(key string, dst []byte) (val []byte, flags uint32, ok bool) {
	return h.GetHash(kv.HashString(key), key, dst)
}

// GetHash is Get for a key already hashed with kv.HashString.
func (h *HotCache) GetHash(hash uint64, key string, dst []byte) (val []byte, flags uint32, ok bool) {
	h.mu.Lock()
	i, found := h.findLocked(hash)
	if found {
		e := &h.ents[i]
		switch {
		case string(e.buf[:e.klen]) != key:
			found = false
		case h.now() > e.deadline:
			h.removeLocked(i)
			found = false
		default:
			h.unlinkLocked(i)
			h.pushFrontLocked(i)
			dst, flags = append(dst, e.buf[e.klen:]...), e.flags
		}
	}
	h.mu.Unlock()
	if !found {
		atomic.AddUint64(&h.ctr.Misses, 1)
		return dst, 0, false
	}
	atomic.AddUint64(&h.ctr.Hits, 1)
	return dst, flags, true
}

// Put caches val under key for the TTL, evicting LRU entries past the byte
// budget. A value whose key and value together exceed the whole budget is
// not cached, and drops the key's older copy. The value is copied; callers
// may reuse their buffer.
func (h *HotCache) Put(key string, flags uint32, val []byte) {
	h.PutHash(kv.HashString(key), key, flags, val)
}

// PutHash is Put for a key already hashed with kv.HashString.
func (h *HotCache) PutHash(hash uint64, key string, flags uint32, val []byte) {
	n := len(key) + len(val)
	h.mu.Lock()
	defer h.mu.Unlock()
	s, found := h.slotLocked(hash)
	i := h.index[s].ent - 1
	if int64(n) > h.maxBytes {
		if found && string(h.ents[i].buf[:h.ents[i].klen]) == key {
			h.removeLocked(i)
		}
		return
	}
	if found {
		h.unlinkLocked(i)
		h.bytes -= int64(len(h.ents[i].buf))
	} else {
		i = h.allocLocked()
		h.index[s] = hotSlot{hash: hash, ent: i + 1}
		h.items++
		if h.items > len(h.index)/4*3 {
			h.growLocked()
		}
	}
	e := &h.ents[i]
	if c := cap(e.buf); c < n || c > 2*n+hotSlack {
		e.buf = slices.Grow([]byte(nil), n)
	}
	e.buf = append(append(e.buf[:0], key...), val...)
	e.klen, e.flags, e.hash, e.deadline = int32(len(key)), flags, hash, h.now()+int64(h.ttl)
	h.pushFrontLocked(i)
	h.bytes += int64(n)
	for h.bytes > h.maxBytes {
		h.removeLocked(h.tail)
		atomic.AddUint64(&h.ctr.Evicts, 1)
	}
}

// Invalidate drops key (called when a write or delete for the key passes
// through this node, so the local copy never outlives what this node knows
// changed).
func (h *HotCache) Invalidate(key string) { h.InvalidateHash(kv.HashString(key), key) }

// InvalidateHash is Invalidate for a key already hashed with kv.HashString.
func (h *HotCache) InvalidateHash(hash uint64, key string) {
	h.mu.Lock()
	if i, ok := h.findLocked(hash); ok && string(h.ents[i].buf[:h.ents[i].klen]) == key {
		h.removeLocked(i)
	}
	h.mu.Unlock()
}

// slotLocked returns the index slot holding hash and true, or the empty slot
// where it would go and false. The index always has an empty slot.
func (h *HotCache) slotLocked(hash uint64) (int, bool) {
	mask := len(h.index) - 1
	for s := int(hash) & mask; ; s = (s + 1) & mask {
		switch sl := &h.index[s]; {
		case sl.ent == 0:
			return s, false
		case sl.hash == hash:
			return s, true
		}
	}
}

// findLocked returns the entry hash maps to.
func (h *HotCache) findLocked(hash uint64) (int32, bool) {
	s, ok := h.slotLocked(hash)
	return h.index[s].ent - 1, ok
}

// growLocked doubles the index.
func (h *HotCache) growLocked() {
	old := h.index
	h.index = make([]hotSlot, 2*len(old))
	for _, sl := range old {
		if sl.ent != 0 {
			s, _ := h.slotLocked(sl.hash)
			h.index[s] = sl
		}
	}
}

// unindexLocked drops hash from the index. The slots after it in its probe
// run move back into the hole where their own probe would reach it, so no
// slot is left a tombstone and every lookup still ends at an empty slot.
func (h *HotCache) unindexLocked(hash uint64) {
	s, ok := h.slotLocked(hash)
	if !ok {
		return
	}
	mask := len(h.index) - 1
	for j := (s + 1) & mask; h.index[j].ent != 0; j = (j + 1) & mask {
		// The slot at j moves to the hole at s unless its probe starts
		// after s: between s and j, cyclically.
		if start := int(h.index[j].hash) & mask; (j-start)&mask >= (j-s)&mask {
			h.index[s] = h.index[j]
			s = j
		}
	}
	h.index[s] = hotSlot{}
}

// hotPrefetchWindow is how many hashes PrefetchHashes loads per pass: the
// slots it finds live on the stack.
const hotPrefetchWindow = 64

// PrefetchHashes loads the memory that GetHash of the hashed keys is about
// to read: each hash's index slot, the entry it finds, the first byte of the
// entry's key and its LRU neighbours. A server calls it with the remote GET
// keys of a pipelined chunk before serving them, so their misses overlap
// (DESIGN.md §10). It takes the lock once per window and makes three passes,
// no load in a pass depending on another key's. It changes nothing a later
// call can see: no LRU move, no expiry, no counter.
func (h *HotCache) PrefetchHashes(hs []uint64) {
	var at [hotPrefetchWindow]int32
	h.mu.Lock()
	defer h.mu.Unlock()
	var sink int32
	for len(hs) > 0 {
		w := hs[:min(len(hs), len(at))]
		hs = hs[len(w):]
		n := 0
		for _, hash := range w {
			if i, ok := h.findLocked(hash); ok {
				at[n] = i
				n++
			}
		}
		for _, i := range at[:n] {
			if e := &h.ents[i]; e.klen > 0 {
				sink += int32(e.buf[0])
			}
		}
		for _, i := range at[:n] {
			e := &h.ents[i]
			if e.prev != noSlot {
				sink += h.ents[e.prev].next
			}
			if e.next != noSlot {
				sink += h.ents[e.next].prev
			}
		}
	}
	h.sink += sink
}

// allocLocked returns a slot off the free list, or a new one.
func (h *HotCache) allocLocked() int32 {
	if i := h.free; i != noSlot {
		h.free = h.ents[i].next
		return i
	}
	h.ents = append(h.ents, hotEntry{})
	return int32(len(h.ents) - 1)
}

// removeLocked drops entry i and puts its slot, buffer kept, on the free
// list.
func (h *HotCache) removeLocked(i int32) {
	e := &h.ents[i]
	h.unlinkLocked(i)
	h.unindexLocked(e.hash)
	h.items--
	h.bytes -= int64(len(e.buf))
	e.next, h.free = h.free, i
}

func (h *HotCache) unlinkLocked(i int32) {
	e := &h.ents[i]
	if e.prev != noSlot {
		h.ents[e.prev].next = e.next
	} else {
		h.head = e.next
	}
	if e.next != noSlot {
		h.ents[e.next].prev = e.prev
	} else {
		h.tail = e.prev
	}
}

func (h *HotCache) pushFrontLocked(i int32) {
	e := &h.ents[i]
	e.prev, e.next = noSlot, h.head
	if h.head != noSlot {
		h.ents[h.head].prev = i
	} else {
		h.tail = i
	}
	h.head = i
}

// HotCacheStats is a point-in-time snapshot of the hot cache.
type HotCacheStats struct {
	HotCacheCounters
	Bytes int64 `json:"bytes" prom:"pamakv_hot_cache_bytes" help:"Bytes resident in the hot-item mini-cache."`
	Items int   `json:"items" prom:"pamakv_hot_cache_items" help:"Entries resident in the hot-item mini-cache."`
}

// HotCacheCounters are the hot cache's monotonic counters.
type HotCacheCounters struct {
	Hits   uint64 `json:"hits" prom:"pamakv_hot_cache_hits_total" help:"Remote-owned GETs served from the hot-item mini-cache."`
	Misses uint64 `json:"misses" prom:"pamakv_hot_cache_misses_total" help:"Hot-cache lookups that fell through to the owner."`
	Evicts uint64 `json:"evicts" prom:"pamakv_hot_cache_evictions_total" help:"Hot-cache entries evicted past the byte budget."`
}

// Stats snapshots the cache's counters and occupancy.
func (h *HotCache) Stats() HotCacheStats {
	h.mu.Lock()
	bytes, items := h.bytes, h.items
	h.mu.Unlock()
	return HotCacheStats{HotCacheCounters: obs.Load(h.ctr), Bytes: bytes, Items: items}
}
