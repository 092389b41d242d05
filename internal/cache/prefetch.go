package cache

import "pamakv/internal/kv"

// PrefetchWindow is how many keys Prefetch and PrefetchHashes load per pass:
// the arrays that carry them live on the stack.
const PrefetchWindow = 64

// Prefetch loads the memory that serving keys is about to read: each key's
// index probe run, the item its hash finds, the first bytes of that item's
// key and value, and its LRU neighbours. A server calls it with the keys of
// a pipelined burst it has parsed but not yet served, so the cache misses of
// all of them overlap instead of being paid one command at a time (DESIGN.md
// §10). It changes nothing a later operation can see: no clock tick, no LRU
// move, no counter but Prefetched and PrefetchResident.
func (c *Cache) Prefetch(keys []string) {
	var hs [PrefetchWindow]uint64
	for len(keys) > 0 {
		n := min(len(keys), len(hs))
		for i, k := range keys[:n] {
			hs[i] = kv.HashString(k)
		}
		c.PrefetchHashes(hs[:n])
		keys = keys[n:]
	}
}

// PrefetchHashes is Prefetch for keys already hashed with kv.HashString (a
// shard group hashes each key once, to route it and to probe). It takes the
// engine lock once and makes three passes over at most PrefetchWindow keys at
// a time. No load in a pass depends on another key's, so the processor keeps
// many misses in flight at once.
func (c *Cache) PrefetchHashes(hs []uint64) {
	var its [PrefetchWindow]*kv.Item
	c.mu.Lock()
	defer c.mu.Unlock()
	var sink uint64
	for len(hs) > 0 {
		w := hs[:min(len(hs), len(its))]
		hs = hs[len(w):]
		// 1. The slots: each key's probe run, and the item its hash finds.
		n := 0
		for _, h := range w {
			if it := c.index.Peek(h); it != nil {
				its[n] = it
				n++
			}
		}
		// 2. The items, and behind them the bytes a key compare and a
		// value copy (or overwrite) read first.
		for _, it := range its[:n] {
			if len(it.Key) > 0 {
				sink += uint64(it.Key[0])
			}
			if len(it.Value) > 0 {
				sink += uint64(it.Value[0])
			}
		}
		// 3. The LRU neighbours a hit's move to the front, or an
		// overwrite's unlink, writes.
		for _, it := range its[:n] {
			if p := it.Prev; p != nil && p.Next == it {
				sink++
			}
			if nx := it.Next; nx != nil && nx.Prev == it {
				sink++
			}
		}
		c.stats.Prefetched += uint64(len(w))
		c.stats.PrefetchResident += uint64(n)
	}
	c.prefetchSink += sink
}
