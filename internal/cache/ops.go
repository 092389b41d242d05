package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pamakv/internal/kv"
)

// Errors for conditional and numeric operations.
var (
	// ErrNotStored reports a failed add/replace precondition.
	ErrNotStored = errors.New("cache: precondition failed, not stored")
	// ErrCASMismatch reports a compare-and-set against a changed item.
	ErrCASMismatch = errors.New("cache: cas token mismatch")
	// ErrNotNumeric reports incr/decr on a non-numeric value.
	ErrNotNumeric = errors.New("cache: value is not a number")
)

// The two ways a precondition fails, built once: a refusal allocates nothing.
var (
	errKeyExists = fmt.Errorf("%w: key exists", ErrNotStored)
	errKeyAbsent = fmt.Errorf("%w: key absent", ErrNotStored)
)

// SetMode selects the precondition of a conditional store.
type SetMode int

const (
	// ModeSet stores unconditionally.
	ModeSet SetMode = iota
	// ModeAdd stores only when the key is absent.
	ModeAdd
	// ModeReplace stores only when the key is present.
	ModeReplace
	// ModeCAS stores only when the resident item's CAS token matches.
	ModeCAS
	// ModeAppend adds value after the resident item's value.
	ModeAppend
	// ModePrepend adds value before the resident item's value.
	ModePrepend
)

// SetMode stores key under a precondition, checked and stored under one
// lock: of two racing conditional stores exactly one sees the other's
// result. For ModeCAS, cas must be the token returned by GetWithCAS. Returns
// ErrNotStored (add/replace/append/prepend) or ErrCASMismatch when the
// precondition fails. ModeAppend and ModePrepend rewrite the resident item,
// as Memcached does: it keeps its flags, expiry and penalty, and size, pen,
// flags and expireAt are ignored. As for Set, the callee copies what it
// retains (nothing, when it refuses).
func (c *Cache) SetMode(key string, mode SetMode, cas uint64, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	return c.SetModeHash(kv.HashString(key), key, mode, cas, size, pen, flags, expireAt, value)
}

// SetModeHash is SetMode for key hashed to h.
func (c *Cache) SetModeHash(h uint64, key string, mode SetMode, cas uint64, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mode == ModeSet {
		return c.setLocked(h, key, size, pen, flags, expireAt, value)
	}
	_, it := c.liveLocked(h, key)
	switch {
	case mode == ModeAdd && it != nil:
		return errKeyExists
	case mode != ModeAdd && it == nil:
		return errKeyAbsent
	case mode == ModeCAS && it.CAS != cas:
		return ErrCASMismatch
	case mode == ModeAppend || mode == ModePrepend:
		c.tick()
		c.stats.Sets++
		head, tail := value, []byte(nil)
		if mode == ModeAppend {
			head, tail = nil, value
		}
		inPlace, err := c.rewriteLocked(it, key, head, it.Value(), tail)
		if inPlace {
			c.stats.Overwrites++
		}
		return err
	}
	return c.setLocked(h, key, size, pen, flags, expireAt, value)
}

// CASOf returns the CAS token of key's live item when it holds exactly flags
// and value, else 0. It counts nothing and leaves LRU order and the policy
// alone: a read-through GETS takes the token of the item its fill stored
// here, and a write that landed since makes it 0.
func (c *Cache) CASOf(key string, flags uint32, value []byte) uint64 {
	return c.CASOfHash(kv.HashString(key), key, flags, value)
}

// CASOfHash is CASOf for key hashed to h.
func (c *Cache) CASOfHash(h uint64, key string, flags uint32, value []byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, it := c.find(h, key)
	if it == nil || c.expired(it) || it.Flags != flags || !bytes.Equal(it.Value(), value) {
		return 0
	}
	return it.CAS
}

// Touch updates the expiry deadline of a resident item without disturbing
// its LRU position, reporting whether the key was found.
func (c *Cache) Touch(key string, expireAt int64) bool {
	return c.TouchHash(kv.HashString(key), key, expireAt)
}

// TouchHash is Touch for key hashed to h.
func (c *Cache) TouchHash(h uint64, key string, expireAt int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick()
	_, it := c.liveLocked(h, key)
	if it == nil {
		return false
	}
	it.ExpireAt = kv.Deadline(expireAt)
	return true
}

// ScanKeys reports every live (non-expired) resident item's key, miss
// penalty, size, and absolute expiry to fn; fn returning false stops the
// walk. Unlike RangeItems (a policy-facing primitive that assumes the
// lock is already held) this is safe to call from outside the engine — it
// is the membership layer's handoff scan: on a ring change the old owner
// collects (key, penalty) pairs here, sorts them highest penalty first,
// and streams them to the new owner. The engine lock is held only while
// the tuples are snapshotted, not while fn runs, so per-key callback work
// (the handoff scan computes ring routing for every resident) never
// stalls cache operations for the duration of the walk — that stall
// would land exactly at cutover time, when latency matters most. The
// consequence: fn sees a point-in-time snapshot (a key may be gone by the
// time fn sees it; the handoff re-reads at send time anyway) and fn may
// call back into the engine. The key strings are copies and may be
// retained: an engine that stores values keeps each key in its item's value
// slot, which the next store may reuse.
func (c *Cache) ScanKeys(fn func(key string, pen float64, size int, expireAt int64) bool) {
	type entry struct {
		key      string
		pen      float64
		size     int
		expireAt int64
	}
	c.mu.Lock()
	snap := make([]entry, 0, 1024)
	c.index.Range(func(_ uint32, it *kv.Item) bool {
		if !c.expired(it) {
			key := it.Key()
			if c.arena != nil {
				key = strings.Clone(key)
			}
			snap = append(snap, entry{key, it.Penalty, int(it.Size), int64(it.ExpireAt)})
		}
		return true
	})
	c.mu.Unlock()
	for _, e := range snap {
		if !fn(e.key, e.pen, e.size, e.expireAt) {
			return
		}
	}
}

// Delta implements incr/decr: the resident value must be an ASCII unsigned
// integer; it is adjusted by delta (clamped at zero for decrements, wrapping
// per Memcached for increments) and rewritten. The item's size moves by the
// change in digits (rewriteLocked). Requires StoreValues.
func (c *Cache) Delta(key string, delta uint64, decr bool) (uint64, error) {
	return c.DeltaHash(kv.HashString(key), key, delta, decr)
}

// DeltaHash is Delta for key hashed to h.
func (c *Cache) DeltaHash(h uint64, key string, delta uint64, decr bool) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick()
	_, it := c.liveLocked(h, key)
	if it == nil {
		return 0, ErrNotStored
	}
	cur, ok := parseUintValue(it.Value())
	if !ok {
		return 0, ErrNotNumeric
	}
	var next uint64
	if decr {
		if delta > cur {
			next = 0 // Memcached clamps decrements at zero
		} else {
			next = cur - delta
		}
	} else {
		next = cur + delta // wraps at 2^64, as Memcached does
	}
	var digits [20]byte
	if _, err := c.rewriteLocked(it, key, strconv.AppendUint(digits[:0], next, 10), nil, nil); err != nil {
		return 0, err
	}
	return next, nil
}

// rewriteLocked gives the live item it the value head + mid + tail, where mid
// is nil or its current value, keeping its flags, expiry and penalty. The
// item's size moves by the change in length: while it still fits the slot the
// value is rewritten in place, otherwise it is stored afresh, into a larger
// class. Either way the item gets a new CAS token. Caller holds c.mu.
func (c *Cache) rewriteLocked(it *kv.Item, key string, head, mid, tail []byte) (inPlace bool, err error) {
	n := len(head) + len(mid) + len(tail)
	size := int(it.Size) + n - int(it.VLen)
	if size > c.classes[it.Class].slot {
		// Built apart: the store frees the old slot before it copies.
		v := append(append(append(make([]byte, 0, n), head...), mid...), tail...)
		return false, c.storeLocked(it.Hash, key, size, it.Penalty, it.Flags, int64(it.ExpireAt), v)
	}
	if c.cfg.StoreValues {
		v := it.Mem(c.classes[it.Class].slot)[it.KLen:][:n]
		copy(v[len(head):], mid) // a shift within the slot when mid is the value
		copy(v, head)
		copy(v[len(head)+len(mid):], tail)
		it.VLen = uint32(n)
	}
	c.holes[it.Class] -= int64(size - int(it.Size))
	it.Size = int32(size)
	c.casCounter++
	it.CAS = c.casCounter
	return true, nil
}

// parseUintValue parses an ASCII unsigned decimal directly from the value
// bytes — the incr/decr hot path must not materialize a string per request.
// Semantics match strconv.ParseUint(string(b), 10, 64): empty, signed,
// non-digit, and overflowing inputs are rejected.
func parseUintValue(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}
