// Package valuetable is a node's byte-budgeted LRU of (key, flags, value)
// copies. A node runs two: the server's hot cache of forwarded peer reads,
// with a TTL, and the serve-stale table the engines push dying items into,
// without one (DESIGN.md §8 and §6).
package valuetable

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pamakv/internal/hashtable"
	"pamakv/internal/kv"
	"pamakv/internal/lru"
	"pamakv/internal/obs"
)

// Table is a byte-budgeted LRU of value copies with an optional TTL. A key
// and its value together are charged to the budget.
//
// It is built from the engine's parts, as an mrc shadow is: each entry is a
// record of a kv.Records chunk store, linked on an lru.List and found through
// a hashtable.Table, so after warm-up neither a lookup nor a store allocates.
// The index compares a stored tag and then the record's key, so a hash
// collision is a miss. The table keeps one key+value buffer per record slot,
// which a later Put into the slot reuses; the record's Slot names it, KLen
// and VLen are the key's and value's lengths in it and Flags the client
// flags. CAS, which the table has no other use for, holds the entry's expiry
// deadline on the now clock.
type Table struct {
	maxBytes int64
	ttl      time.Duration // 0: entries never expire
	// now reads the clock deadlines are set on, in nanoseconds; stubbed
	// by tests.
	now func() int64

	mu    sync.Mutex
	recs  kv.Records
	list  lru.List // most recently used at the front
	index *hashtable.Table
	bufs  [][]byte // by record slot (bufAt): its key+value buffer
	bytes int64

	// sink keeps PrefetchHashes' loads: they are summed into it under mu.
	sink uint32

	// ctr is the live counter set, bumped with atomic.AddUint64 and
	// loaded by Stats (obs.Load).
	ctr *Counters
}

// slack is how far a slot's buffer may exceed twice what it holds before a
// Put gives it a fitting one, so a slot that once held a large value does
// not pin it under small ones.
const slack = 64

// New builds a table holding at most maxBytes of keys and values, whose
// entries expire ttl after their Put; a ttl of 0 means never.
func New(maxBytes int64, ttl time.Duration) *Table {
	t := &Table{maxBytes: maxBytes, ttl: ttl, now: obs.MonoNanos, ctr: new(Counters)}
	t.list = lru.New(&t.recs)
	t.index = hashtable.New(&t.recs, 0)
	// One record is never an entry, so the store never empties and gives its
	// chunk back: a Put after the last entry left allocates nothing.
	t.recs.New()
	return t
}

// bufAt returns the index in bufs of record id: the chunks' records counted
// without the page bits a chunk leaves unused.
func bufAt(id uint32) int {
	pid, i := kv.PageOf(id)
	return int(pid)*kv.ChunkLen + i
}

// GetHash appends the value of key, hashed with kv.HashString, to dst if it
// is held and fresh, makes it the most recently used entry, and returns the
// extended buffer (dst itself on a miss).
func (t *Table) GetHash(hash uint64, key string, dst []byte) (val []byte, flags uint32, ok bool) {
	t.mu.Lock()
	if id := t.index.Get(hash, key); id != 0 {
		if it := t.recs.At(id); t.ttl > 0 && t.now() > int64(it.CAS) {
			t.removeLocked(id)
		} else {
			t.list.MoveToFront(id)
			dst, flags, ok = append(dst, it.Value()...), it.Flags, true
		}
	}
	t.mu.Unlock()
	if !ok {
		atomic.AddUint64(&t.ctr.Misses, 1)
		return dst, 0, false
	}
	atomic.AddUint64(&t.ctr.Hits, 1)
	return dst, flags, true
}

// Contains reports whether key has an entry, expired or not, without
// touching recency or counters (audits).
func (t *Table) Contains(hash uint64, key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.index.Get(hash, key) != 0
}

// PutHash holds a copy of val under key, hashed with kv.HashString, for the
// TTL, evicting LRU entries past the byte budget. A value whose key and value
// together exceed the whole budget, or whose key is longer than a record
// holds, is not held, and drops the key's older copy. The value is copied;
// callers may reuse their buffer.
func (t *Table) PutHash(hash uint64, key string, flags uint32, val []byte) {
	n := len(key) + len(val)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.index.Get(hash, key)
	if int64(n) > t.maxBytes || len(key) > kv.MaxKeyLen {
		if id != 0 {
			t.removeLocked(id)
		}
		return
	}
	var it *kv.Item
	if id != 0 {
		it = t.recs.At(id)
		t.bytes -= int64(it.KLen) + int64(it.VLen)
		t.list.MoveToFront(id)
	} else {
		id, it = t.recs.New()
		it.Hash = hash
		t.index.Insert(id)
		t.list.PushFront(id)
	}
	i := bufAt(id)
	if i >= len(t.bufs) {
		t.bufs = slices.Grow(t.bufs, i+1-len(t.bufs))[:i+1]
	}
	b := &t.bufs[i]
	if c := cap(*b); c < n || c > 2*n+slack {
		*b = slices.Grow([]byte(nil), n)
	}
	*b = append(append((*b)[:0], key...), val...)
	it.Slot = uintptr(unsafe.Pointer(unsafe.SliceData(*b)))
	it.KLen, it.VLen, it.Flags = uint16(len(key)), uint32(len(val)), flags
	if t.ttl > 0 {
		it.CAS = uint64(t.now() + int64(t.ttl))
	}
	t.bytes += int64(n)
	for t.bytes > t.maxBytes {
		t.removeLocked(t.list.Back())
		atomic.AddUint64(&t.ctr.Evicts, 1)
	}
}

// InvalidateHash drops the entry of key, hashed with kv.HashString, if it has
// one.
func (t *Table) InvalidateHash(hash uint64, key string) {
	t.mu.Lock()
	if id := t.index.Get(hash, key); id != 0 {
		t.removeLocked(id)
	}
	t.mu.Unlock()
}

// Flush drops every entry, keeping the records and their buffers for reuse.
func (t *Table) Flush() {
	t.mu.Lock()
	for t.list.Len() > 0 {
		t.removeLocked(t.list.Front())
	}
	t.mu.Unlock()
}

// removeLocked drops entry id. Its buffer stays with the record slot.
func (t *Table) removeLocked(id uint32) {
	it := t.recs.At(id)
	t.bytes -= int64(it.KLen) + int64(it.VLen)
	t.list.Remove(id)
	t.index.Remove(id)
	t.recs.Free(id)
}

// prefetchWindow is how many hashes PrefetchHashes loads per pass: the
// records it finds live on the stack.
const prefetchWindow = 64

// PrefetchHashes loads the memory that GetHash of the hashed keys is about
// to read: each hash's index slot (hashtable.Peek), the record it finds and
// the first byte of the record's key, and its LRU neighbours. A server calls
// it with the remote GET keys of a pipelined chunk before serving them, so
// their misses overlap (DESIGN.md §10). It takes the lock once per window
// and makes three passes, no load in a pass depending on another key's. It
// changes nothing a later call can see: no LRU move, no expiry, no counter.
func (t *Table) PrefetchHashes(hs []uint64) {
	var at [prefetchWindow]uint32
	t.mu.Lock()
	defer t.mu.Unlock()
	var sink uint32
	for len(hs) > 0 {
		w := hs[:min(len(hs), len(at))]
		hs = hs[len(w):]
		n := 0
		for _, hash := range w {
			if id := t.index.Peek(hash); id != 0 {
				at[n] = id
				n++
			}
		}
		for _, id := range at[:n] {
			if it := t.recs.At(id); it.KLen > 0 {
				sink += uint32(it.Mem(1)[0])
			}
		}
		for _, id := range at[:n] {
			it := t.recs.At(id)
			if it.Prev != 0 {
				sink += t.recs.At(it.Prev).Next
			}
			if it.Next != 0 {
				sink += t.recs.At(it.Next).Prev
			}
		}
	}
	t.sink += sink
}

// Stats is a point-in-time snapshot of a table. Its tags name the series of
// the one table a node publishes, the server's hot cache.
type Stats struct {
	Counters
	Bytes int64 `json:"bytes" prom:"pamakv_hot_cache_bytes" help:"Bytes resident in the hot-item mini-cache."`
	Items int   `json:"items" prom:"pamakv_hot_cache_items" help:"Entries resident in the hot-item mini-cache."`
}

// Counters are a table's monotonic counters.
type Counters struct {
	Hits   uint64 `json:"hits" prom:"pamakv_hot_cache_hits_total" help:"Remote-owned GETs served from the hot-item mini-cache."`
	Misses uint64 `json:"misses" prom:"pamakv_hot_cache_misses_total" help:"Hot-cache lookups that fell through to the owner."`
	Evicts uint64 `json:"evicts" prom:"pamakv_hot_cache_evictions_total" help:"Hot-cache entries evicted past the byte budget."`
}

// Stats snapshots the table's counters and occupancy.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	bytes, items := t.bytes, t.list.Len()
	t.mu.Unlock()
	return Stats{Counters: obs.Load(t.ctr), Bytes: bytes, Items: items}
}
