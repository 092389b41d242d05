package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
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
type HotCache struct {
	maxBytes int64
	ttl      time.Duration
	// now is stubbed by tests.
	now func() time.Time

	mu    sync.Mutex
	ll    *list.List // front = most recent
	items map[string]*list.Element
	bytes int64

	hits, misses, evicts atomic.Uint64
}

// hotEntry is one cached value with its expiry deadline.
type hotEntry struct {
	key      string
	flags    uint32
	val      []byte
	deadline time.Time
}

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
		now:      time.Now,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value for key if present and fresh.
func (h *HotCache) Get(key string) (val []byte, flags uint32, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, found := h.items[key]
	if !found {
		h.misses.Add(1)
		return nil, 0, false
	}
	ent := e.Value.(*hotEntry)
	if h.now().After(ent.deadline) {
		h.removeLocked(e)
		h.misses.Add(1)
		return nil, 0, false
	}
	h.ll.MoveToFront(e)
	h.hits.Add(1)
	return ent.val, ent.flags, true
}

// Put caches val under key for the TTL, evicting LRU entries past the byte
// budget. Values larger than the whole budget are not cached. The value is
// copied; callers may reuse their buffer.
func (h *HotCache) Put(key string, flags uint32, val []byte) {
	cost := int64(len(key) + len(val))
	if cost > h.maxBytes {
		return
	}
	cp := append([]byte(nil), val...)
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.items[key]; ok {
		h.removeLocked(e)
	}
	ent := &hotEntry{key: key, flags: flags, val: cp, deadline: h.now().Add(h.ttl)}
	h.items[key] = h.ll.PushFront(ent)
	h.bytes += cost
	for h.bytes > h.maxBytes {
		back := h.ll.Back()
		if back == nil {
			break
		}
		h.removeLocked(back)
		h.evicts.Add(1)
	}
}

// Invalidate drops key (called when a write or delete for the key passes
// through this node, so the local copy never outlives what this node knows
// changed).
func (h *HotCache) Invalidate(key string) {
	h.mu.Lock()
	if e, ok := h.items[key]; ok {
		h.removeLocked(e)
	}
	h.mu.Unlock()
}

func (h *HotCache) removeLocked(e *list.Element) {
	ent := e.Value.(*hotEntry)
	h.ll.Remove(e)
	delete(h.items, ent.key)
	h.bytes -= int64(len(ent.key) + len(ent.val))
}

// HotCacheStats is a point-in-time snapshot of the hot cache.
type HotCacheStats struct {
	Hits   uint64 `json:"hits" prom:"pamakv_hot_cache_hits_total" help:"Remote-owned GETs served from the hot-item mini-cache."`
	Misses uint64 `json:"misses" prom:"pamakv_hot_cache_misses_total" help:"Hot-cache lookups that fell through to the owner."`
	Evicts uint64 `json:"evicts" prom:"pamakv_hot_cache_evictions_total" help:"Hot-cache entries evicted past the byte budget."`
	Bytes  int64  `json:"bytes" prom:"pamakv_hot_cache_bytes" help:"Bytes resident in the hot-item mini-cache."`
	Items  int    `json:"items" prom:"pamakv_hot_cache_items" help:"Entries resident in the hot-item mini-cache."`
}

// Stats snapshots the cache's counters and occupancy.
func (h *HotCache) Stats() HotCacheStats {
	h.mu.Lock()
	bytes, items := h.bytes, h.ll.Len()
	h.mu.Unlock()
	return HotCacheStats{
		Hits:   h.hits.Load(),
		Misses: h.misses.Load(),
		Evicts: h.evicts.Load(),
		Bytes:  bytes,
		Items:  items,
	}
}
