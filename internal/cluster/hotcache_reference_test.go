package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// refHotCache is the hot cache as a string-keyed map over container/list,
// one allocated entry per Put: the model TestHotCacheMatchesReference holds
// HotCache to. Its one known fault is kept on purpose: a Put refused for
// size returns before it drops the key's older entry (HotCache drops it).
type refHotCache struct {
	maxBytes int64
	ttl      time.Duration
	now      func() time.Time

	mu    sync.Mutex
	ll    *list.List // front = most recent
	items map[string]*list.Element
	bytes int64

	hits, misses, evicts atomic.Uint64
}

type refHotEntry struct {
	key      string
	flags    uint32
	val      []byte
	deadline time.Time
}

func newRefHotCache(maxBytes int64, ttl time.Duration) *refHotCache {
	if maxBytes <= 0 {
		maxBytes = DefaultHotCacheBytes
	}
	if ttl <= 0 {
		ttl = DefaultHotCacheTTL
	}
	return &refHotCache{
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      time.Now,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (h *refHotCache) Get(key string) (val []byte, flags uint32, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, found := h.items[key]
	if !found {
		h.misses.Add(1)
		return nil, 0, false
	}
	ent := e.Value.(*refHotEntry)
	if h.now().After(ent.deadline) {
		h.removeLocked(e)
		h.misses.Add(1)
		return nil, 0, false
	}
	h.ll.MoveToFront(e)
	h.hits.Add(1)
	return ent.val, ent.flags, true
}

func (h *refHotCache) Put(key string, flags uint32, val []byte) {
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
	ent := &refHotEntry{key: key, flags: flags, val: cp, deadline: h.now().Add(h.ttl)}
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

func (h *refHotCache) Invalidate(key string) {
	h.mu.Lock()
	if e, ok := h.items[key]; ok {
		h.removeLocked(e)
	}
	h.mu.Unlock()
}

func (h *refHotCache) removeLocked(e *list.Element) {
	ent := e.Value.(*refHotEntry)
	h.ll.Remove(e)
	delete(h.items, ent.key)
	h.bytes -= int64(len(ent.key) + len(ent.val))
}

// lruOrder lists the cached keys from most to least recently used.
func (h *refHotCache) lruOrder() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for e := h.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*refHotEntry).key)
	}
	return out
}

func (h *refHotCache) Stats() HotCacheStats {
	h.mu.Lock()
	bytes, items := h.bytes, h.ll.Len()
	h.mu.Unlock()
	return HotCacheStats{
		HotCacheCounters: HotCacheCounters{Hits: h.hits.Load(), Misses: h.misses.Load(), Evicts: h.evicts.Load()},
		Bytes:            bytes,
		Items:            items,
	}
}
