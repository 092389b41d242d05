package cache

import (
	"strings"

	"pamakv/internal/kv"
)

// The stale buffer retains the bytes of recently dead items — evicted under
// space pressure or reaped by TTL expiry — in a bounded side structure, so a
// read-through server whose backend is failing can degrade to serving a
// recently valid value instead of erroring (serve-stale). It is independent
// of the policy ghost regions: ghosts exist only for policies that request
// them and deliberately drop value bytes; the stale buffer is a pure
// reliability feature, on when Config.StaleBytes is positive.
//
// All methods are called with c.mu held unless noted.

// staleOverhead approximates per-entry bookkeeping charged to the buffer
// budget on top of key and value bytes.
const staleOverhead = 64

func staleCost(it *kv.Item) int64 {
	return int64(len(it.Key)+len(it.Value)) + staleOverhead
}

// pushStaleLocked copies a dying item's key, flags, and value into the stale
// buffer, evicting the oldest entries past the byte budget. No-op when the
// buffer is disabled or the item carries no bytes.
func (c *Cache) pushStaleLocked(it *kv.Item) {
	if c.staleIdx == nil || len(it.Value) == 0 {
		return
	}
	e := c.acquire()
	e.Hash = it.Hash
	e.Flags = it.Flags
	// Private copies, charged to the stale budget: the dying item's slot,
	// which holds its key too, goes back to its class.
	e.Key = strings.Clone(it.Key)
	e.Value = append([]byte(nil), it.Value...)
	if old := c.staleIdx.Put(e); old != nil {
		c.staleLst.Remove(old)
		c.staleSize -= staleCost(old)
		c.releaseRaw(old)
	}
	c.staleLst.PushFront(e)
	c.staleSize += staleCost(e)
	for c.staleSize > c.cfg.StaleBytes {
		oldest := c.staleLst.PopBack()
		if oldest == nil {
			break
		}
		c.staleIdx.Remove(oldest)
		c.staleSize -= staleCost(oldest)
		c.releaseRaw(oldest)
	}
}

// dropStaleLocked forgets any stale copy of key: a fresh store or an
// explicit delete supersedes it.
func (c *Cache) dropStaleLocked(h uint64, key string) {
	if c.staleIdx == nil {
		return
	}
	if e := c.staleIdx.Delete(h, key); e != nil {
		c.staleLst.Remove(e)
		c.staleSize -= staleCost(e)
		c.releaseRaw(e)
	}
}

// flushStaleLocked empties the buffer (flush_all semantics: stale copies of
// flushed data must not survive).
func (c *Cache) flushStaleLocked() {
	if c.staleIdx == nil {
		return
	}
	for e := c.staleLst.PopFront(); e != nil; e = c.staleLst.PopFront() {
		c.staleIdx.Remove(e)
		c.releaseRaw(e)
	}
	c.staleSize = 0
}

// GetStale serves a degraded read from an engine with a stale buffer: the
// current value if the key is resident (even when expired), else a retained
// copy from the buffer. Without a buffer it serves nothing. It does not
// touch LRU state, does not count as a Get, and never read-throughs — it
// exists for the server's serve-stale-on-backend-failure mode. The returned
// bool reports whether anything could be served.
func (c *Cache) GetStale(key string, buf []byte) (val []byte, flags uint32, ok bool) {
	return c.GetStaleHash(kv.HashString(key), key, buf)
}

// GetStaleHash is GetStale for key hashed to h.
func (c *Cache) GetStaleHash(h uint64, key string, buf []byte) (val []byte, flags uint32, ok bool) {
	if c.staleIdx == nil { // set once by New
		return buf, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if it := c.index.Get(h, key); it != nil {
		c.stats.StaleGets++
		return append(buf, it.Value...), it.Flags, true
	}
	if e := c.staleIdx.Get(h, key); e != nil {
		c.stats.StaleGets++
		return append(buf, e.Value...), e.Flags, true
	}
	return buf, 0, false
}

// StaleBytes returns the bytes currently held by the stale buffer (tests and
// stats).
func (c *Cache) StaleBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staleSize
}
