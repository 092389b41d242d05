package cache

import "pamakv/internal/kv"

// PrefetchWindow is how many keys Prefetch and PrefetchHashes load per pass:
// the arrays that carry them live on the stack.
const PrefetchWindow = 64

// prefetchLines bounds the 64-byte lines PrefetchHashes loads of one key or
// one value: enough for a small value's whole copy, while the copy of a
// longer one is sequential and the processor's stream prefetcher takes over
// after its first lines.
const prefetchLines = 4

// Prefetch loads the memory that serving keys is about to read: each key's
// index probe run, the record its hash finds, the lines of that item's key and
// value (up to prefetchLines each), and its LRU neighbours' records; for a
// key not resident, its ghost bucket and the first ghost record there. A
// server calls it with the keys of a pipelined burst it has parsed but not
// yet served, so the cache misses of all of them overlap instead of being
// paid one command at a time (DESIGN.md §10). It changes nothing a later
// operation can see: no clock tick, no LRU move, no counter but Prefetched
// and PrefetchResident.
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
	var gs [PrefetchWindow]int32
	c.mu.Lock()
	defer c.mu.Unlock()
	var sink uint64
	for len(hs) > 0 {
		w := hs[:min(len(hs), len(its))]
		hs = hs[len(w):]
		// 1. The slots: each key's probe run, and the record its hash
		// finds; for a key found absent, its ghost bucket, which a miss's
		// ghost lookup and a store's ghost drop read.
		n, m := 0, 0
		for _, h := range w {
			if id := c.index.Peek(h); id != 0 {
				its[n] = c.recs.At(id)
				n++
			} else {
				gs[m] = c.ghosts.bucket(h)
				m++
			}
		}
		// 2. The records, and the first ghost record each bucket names.
		for _, it := range its[:n] {
			sink += uint64(it.KLen)
		}
		for _, g := range gs[:m] {
			if g != 0 {
				sink += c.ghosts.recs[g].hash
			}
		}
		// 3. What the records name: the bytes a key compare and a value
		// copy (or overwrite) read, every line of the key and of the
		// value up to prefetchLines of each, which a value-storing engine
		// keeps apart from the record (values.go), and the LRU neighbours
		// a hit's move to the front, or an overwrite's unlink, writes.
		for _, it := range its[:n] {
			sink += touchLines(it.Key())
			sink += touchLines(it.Value())
			if p := it.Prev; p != 0 {
				sink += uint64(c.recs.At(p).Next)
			}
			if nx := it.Next; nx != 0 {
				sink += uint64(c.recs.At(nx).Prev)
			}
		}
		c.stats.Prefetched += uint64(len(w))
		c.stats.PrefetchResident += uint64(n)
	}
	c.prefetchSink += sink
}

// touchLines reads one byte of each 64-byte line b spans, its first
// prefetchLines lines at most, and returns their sum.
func touchLines[T string | []byte](b T) uint64 {
	if len(b) == 0 {
		return 0
	}
	var sum uint64
	end := min(len(b), prefetchLines*64)
	for off := 0; off < end; off += 64 {
		sum += uint64(b[off])
	}
	return sum + uint64(b[end-1])
}
