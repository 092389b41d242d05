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

	"pamakv/internal/kv"
	"pamakv/internal/obs"
)

// Table is a byte-budgeted LRU of value copies with an optional TTL. A key
// and its value together are charged to the budget.
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
type Table struct {
	maxBytes int64
	ttl      time.Duration // 0: entries never expire
	// now reads the clock deadlines are set on, in nanoseconds; stubbed
	// by tests.
	now func() int64

	mu    sync.Mutex
	index []slot // kv.HashString(key) → slot in ents; a power of two long
	ents  []entry
	// head and tail are the most and least recently used entries, free
	// the first free slot (chained through next); noSlot when there is none.
	head, tail, free int32
	items            int
	bytes            int64

	// sink keeps PrefetchHashes' loads: they are summed into it under mu.
	sink int32

	// ctr is the live counter set, bumped with atomic.AddUint64 and
	// loaded by Stats (obs.Load).
	ctr *Counters
}

// noSlot ends the LRU and free lists.
const noSlot = -1

// slot is one slot of the index: a key's hash and its entry.
type slot struct {
	hash uint64
	ent  int32 // the entry's slot in ents + 1; 0 marks an empty slot
}

// minIndexSlots is the index's starting length.
const minIndexSlots = 64

// entry is one cached value with its expiry deadline. buf holds the key
// and then the value; a later Put into the slot reuses it.
type entry struct {
	buf        []byte
	klen       int32
	flags      uint32
	hash       uint64
	deadline   int64 // on the now clock; unused without a TTL
	prev, next int32
}

// slack is how far a slot's buffer may exceed twice what it holds before a
// Put gives it a fitting one, so a slot that once held a large value does
// not pin it under small ones.
const slack = 64

// New builds a table holding at most maxBytes of keys and values, whose
// entries expire ttl after their Put; a ttl of 0 means never.
func New(maxBytes int64, ttl time.Duration) *Table {
	return &Table{
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      obs.MonoNanos,
		index:    make([]slot, minIndexSlots),
		head:     noSlot,
		tail:     noSlot,
		free:     noSlot,
		ctr:      new(Counters),
	}
}

// Get appends key's value to dst if it is held and fresh, makes it the most
// recently used entry, and returns the extended buffer (dst itself on a
// miss).
func (t *Table) Get(key string, dst []byte) (val []byte, flags uint32, ok bool) {
	return t.GetHash(kv.HashString(key), key, dst)
}

// GetHash is Get for a key already hashed with kv.HashString.
func (t *Table) GetHash(hash uint64, key string, dst []byte) (val []byte, flags uint32, ok bool) {
	t.mu.Lock()
	i, found := t.findLocked(hash)
	if found {
		e := &t.ents[i]
		switch {
		case string(e.buf[:e.klen]) != key:
			found = false
		case t.ttl > 0 && t.now() > e.deadline:
			t.removeLocked(i)
			found = false
		default:
			t.unlinkLocked(i)
			t.pushFrontLocked(i)
			dst, flags = append(dst, e.buf[e.klen:]...), e.flags
		}
	}
	t.mu.Unlock()
	if !found {
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
	i, found := t.findLocked(hash)
	return found && string(t.ents[i].buf[:t.ents[i].klen]) == key
}

// Put holds a copy of val under key for the TTL, evicting LRU entries past
// the byte budget. A value whose key and value together exceed the whole
// budget is not held, and drops the key's older copy. The value is copied;
// callers may reuse their buffer.
func (t *Table) Put(key string, flags uint32, val []byte) {
	t.PutHash(kv.HashString(key), key, flags, val)
}

// PutHash is Put for a key already hashed with kv.HashString.
func (t *Table) PutHash(hash uint64, key string, flags uint32, val []byte) {
	n := len(key) + len(val)
	t.mu.Lock()
	defer t.mu.Unlock()
	s, found := t.slotLocked(hash)
	i := t.index[s].ent - 1
	if int64(n) > t.maxBytes {
		if found && string(t.ents[i].buf[:t.ents[i].klen]) == key {
			t.removeLocked(i)
		}
		return
	}
	if found {
		t.unlinkLocked(i)
		t.bytes -= int64(len(t.ents[i].buf))
	} else {
		i = t.allocLocked()
		t.index[s] = slot{hash: hash, ent: i + 1}
		t.items++
		if t.items > len(t.index)/4*3 {
			t.growLocked()
		}
	}
	e := &t.ents[i]
	if c := cap(e.buf); c < n || c > 2*n+slack {
		e.buf = slices.Grow([]byte(nil), n)
	}
	e.buf = append(append(e.buf[:0], key...), val...)
	e.klen, e.flags, e.hash = int32(len(key)), flags, hash
	if t.ttl > 0 {
		e.deadline = t.now() + int64(t.ttl)
	}
	t.pushFrontLocked(i)
	t.bytes += int64(n)
	for t.bytes > t.maxBytes {
		t.removeLocked(t.tail)
		atomic.AddUint64(&t.ctr.Evicts, 1)
	}
}

// Invalidate drops key's entry, if it has one.
func (t *Table) Invalidate(key string) { t.InvalidateHash(kv.HashString(key), key) }

// InvalidateHash is Invalidate for a key already hashed with kv.HashString.
func (t *Table) InvalidateHash(hash uint64, key string) {
	t.mu.Lock()
	if i, ok := t.findLocked(hash); ok && string(t.ents[i].buf[:t.ents[i].klen]) == key {
		t.removeLocked(i)
	}
	t.mu.Unlock()
}

// Flush drops every entry, keeping the slots and their buffers for reuse.
func (t *Table) Flush() {
	t.mu.Lock()
	for t.head != noSlot {
		t.removeLocked(t.head)
	}
	t.mu.Unlock()
}

// slotLocked returns the index slot holding hash and true, or the empty slot
// where it would go and false. The index always has an empty slot.
func (t *Table) slotLocked(hash uint64) (int, bool) {
	mask := len(t.index) - 1
	for s := int(hash) & mask; ; s = (s + 1) & mask {
		switch sl := &t.index[s]; {
		case sl.ent == 0:
			return s, false
		case sl.hash == hash:
			return s, true
		}
	}
}

// findLocked returns the entry hash maps to.
func (t *Table) findLocked(hash uint64) (int32, bool) {
	s, ok := t.slotLocked(hash)
	return t.index[s].ent - 1, ok
}

// growLocked doubles the index.
func (t *Table) growLocked() {
	old := t.index
	t.index = make([]slot, 2*len(old))
	for _, sl := range old {
		if sl.ent != 0 {
			s, _ := t.slotLocked(sl.hash)
			t.index[s] = sl
		}
	}
}

// unindexLocked drops hash from the index. The slots after it in its probe
// run move back into the hole where their own probe would reach it, so no
// slot is left a tombstone and every lookup still ends at an empty slot.
func (t *Table) unindexLocked(hash uint64) {
	s, ok := t.slotLocked(hash)
	if !ok {
		return
	}
	mask := len(t.index) - 1
	for j := (s + 1) & mask; t.index[j].ent != 0; j = (j + 1) & mask {
		// The slot at j moves to the hole at s unless its probe starts
		// after s: between s and j, cyclically.
		if start := int(t.index[j].hash) & mask; (j-start)&mask >= (j-s)&mask {
			t.index[s] = t.index[j]
			s = j
		}
	}
	t.index[s] = slot{}
}

// prefetchWindow is how many hashes PrefetchHashes loads per pass: the
// slots it finds live on the stack.
const prefetchWindow = 64

// PrefetchHashes loads the memory that GetHash of the hashed keys is about
// to read: each hash's index slot, the entry it finds, the first byte of the
// entry's key and its LRU neighbours. A server calls it with the remote GET
// keys of a pipelined chunk before serving them, so their misses overlap
// (DESIGN.md §10). It takes the lock once per window and makes three passes,
// no load in a pass depending on another key's. It changes nothing a later
// call can see: no LRU move, no expiry, no counter.
func (t *Table) PrefetchHashes(hs []uint64) {
	var at [prefetchWindow]int32
	t.mu.Lock()
	defer t.mu.Unlock()
	var sink int32
	for len(hs) > 0 {
		w := hs[:min(len(hs), len(at))]
		hs = hs[len(w):]
		n := 0
		for _, hash := range w {
			if i, ok := t.findLocked(hash); ok {
				at[n] = i
				n++
			}
		}
		for _, i := range at[:n] {
			if e := &t.ents[i]; e.klen > 0 {
				sink += int32(e.buf[0])
			}
		}
		for _, i := range at[:n] {
			e := &t.ents[i]
			if e.prev != noSlot {
				sink += t.ents[e.prev].next
			}
			if e.next != noSlot {
				sink += t.ents[e.next].prev
			}
		}
	}
	t.sink += sink
}

// allocLocked returns a slot off the free list, or a new one.
func (t *Table) allocLocked() int32 {
	if i := t.free; i != noSlot {
		t.free = t.ents[i].next
		return i
	}
	t.ents = append(t.ents, entry{})
	return int32(len(t.ents) - 1)
}

// removeLocked drops entry i and puts its slot, buffer kept, on the free
// list.
func (t *Table) removeLocked(i int32) {
	e := &t.ents[i]
	t.unlinkLocked(i)
	t.unindexLocked(e.hash)
	t.items--
	t.bytes -= int64(len(e.buf))
	e.next, t.free = t.free, i
}

func (t *Table) unlinkLocked(i int32) {
	e := &t.ents[i]
	if e.prev != noSlot {
		t.ents[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next != noSlot {
		t.ents[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *Table) pushFrontLocked(i int32) {
	e := &t.ents[i]
	e.prev, e.next = noSlot, t.head
	if t.head != noSlot {
		t.ents[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
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
	bytes, items := t.bytes, t.items
	t.mu.Unlock()
	return Stats{Counters: obs.Load(t.ctr), Bytes: bytes, Items: items}
}
