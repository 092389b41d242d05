package cache

import (
	"pamakv/internal/kv"
)

// Serve-stale keeps the bytes of recently dead items — evicted under space
// pressure or reaped by TTL expiry — in Config.Stale, a value table without
// a TTL that every engine of a node shares, so a read-through server whose
// backend is failing can degrade to serving a recently valid value instead
// of erroring. It is independent of the policy ghost regions: ghosts exist
// only for policies that request them and deliberately drop value bytes.
// This file is the engine's glue: push on death, invalidate on store and
// delete, read resident then table, flush.
//
// All methods are called with c.mu held unless noted; the table's lock
// nests inside it.

// pushStaleLocked copies a dying item's key, flags and value into the
// table. No-op without a table or when the item carries no bytes.
func (c *Cache) pushStaleLocked(it *kv.Item) {
	if c.cfg.Stale != nil && it.VLen > 0 {
		c.cfg.Stale.PutHash(it.Hash, it.Key(), it.Flags, it.Value())
	}
}

// dropStaleLocked forgets any stale copy of key: a fresh store or an
// explicit delete supersedes it.
func (c *Cache) dropStaleLocked(h uint64, key string) {
	if c.cfg.Stale != nil {
		c.cfg.Stale.InvalidateHash(h, key)
	}
}

// GetStale serves a degraded read from an engine with a stale table: the
// current value if the key is resident (even when expired), else the
// table's copy, which becomes its most recently used entry. Without a table
// it serves nothing. It does not touch the engine's LRU state, does not
// count as a Get, and never read-throughs — it exists for the server's
// serve-stale-on-backend-failure mode. The returned bool reports whether
// anything could be served.
func (c *Cache) GetStale(key string, buf []byte) (val []byte, flags uint32, ok bool) {
	return c.GetStaleHash(kv.HashString(key), key, buf)
}

// GetStaleHash is GetStale for key hashed to h.
func (c *Cache) GetStaleHash(h uint64, key string, buf []byte) (val []byte, flags uint32, ok bool) {
	if c.cfg.Stale == nil {
		return buf, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, it := c.find(h, key); it != nil {
		val, flags, ok = append(buf, it.Value()...), it.Flags, true
	} else {
		val, flags, ok = c.cfg.Stale.GetHash(h, key, buf)
	}
	if ok {
		c.stats.StaleGets++
	}
	return val, flags, ok
}

// flushStaleLocked empties the table (flush_all semantics: stale copies of
// flushed data must not survive). Every engine of a node flushes it.
func (c *Cache) flushStaleLocked() {
	if c.cfg.Stale != nil {
		c.cfg.Stale.Flush()
	}
}
