package valuetable

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// refTable is the table as a string-keyed map over container/list, one
// allocated entry per Put: the model TestTableMatchesReference holds Table
// to. Its one known fault is kept on purpose: a Put refused for size returns
// before it drops the key's older entry (Table drops it).
type refTable struct {
	maxBytes int64
	ttl      time.Duration
	now      func() time.Time

	mu    sync.Mutex
	ll    *list.List // front = most recent
	items map[string]*list.Element
	bytes int64

	hits, misses, evicts atomic.Uint64
}

type refEntry struct {
	key      string
	flags    uint32
	val      []byte
	deadline time.Time
}

func newRefTable(maxBytes int64, ttl time.Duration) *refTable {
	return &refTable{
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      time.Now,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (h *refTable) Get(key string) (val []byte, flags uint32, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, found := h.items[key]
	if !found {
		h.misses.Add(1)
		return nil, 0, false
	}
	ent := e.Value.(*refEntry)
	if h.ttl > 0 && h.now().After(ent.deadline) {
		h.removeLocked(e)
		h.misses.Add(1)
		return nil, 0, false
	}
	h.ll.MoveToFront(e)
	h.hits.Add(1)
	return ent.val, ent.flags, true
}

func (h *refTable) Put(key string, flags uint32, val []byte) {
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
	ent := &refEntry{key: key, flags: flags, val: cp, deadline: h.now().Add(h.ttl)}
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

func (h *refTable) Invalidate(key string) {
	h.mu.Lock()
	if e, ok := h.items[key]; ok {
		h.removeLocked(e)
	}
	h.mu.Unlock()
}

func (h *refTable) Flush() {
	for _, key := range h.lruOrder() {
		h.Invalidate(key)
	}
}

func (h *refTable) removeLocked(e *list.Element) {
	ent := e.Value.(*refEntry)
	h.ll.Remove(e)
	delete(h.items, ent.key)
	h.bytes -= int64(len(ent.key) + len(ent.val))
}

// lruOrder lists the cached keys from most to least recently used.
func (h *refTable) lruOrder() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for e := h.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*refEntry).key)
	}
	return out
}

func (h *refTable) Stats() Stats {
	h.mu.Lock()
	bytes, items := h.bytes, h.ll.Len()
	h.mu.Unlock()
	return Stats{
		Counters: Counters{Hits: h.hits.Load(), Misses: h.misses.Load(), Evicts: h.evicts.Load()},
		Bytes:    bytes,
		Items:    items,
	}
}
