package cache

import (
	"fmt"
	"math/rand"
	"os"
	"pamakv/internal/valuetable"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// modelItem mirrors what the engine should remember about a key.
type modelItem struct {
	value string
	cas   uint64
}

// TestOpsAgainstMapModel drives Set/SetMode/Get/GetWithCAS/Delete/Delta
// against a plain map model. Eviction is avoided (cache big enough), so the
// engine must agree with the model exactly.
func TestOpsAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{
			Geometry:    smallGeom(),
			CacheBytes:  64 * 4096, // far larger than the 40-key working set
			StoreValues: true,
			WindowLen:   131,
		}, &nullPolicy{bounds: []float64{0.01, 5}, nseg: 2, gseg: 2})
		if err != nil {
			return false
		}
		model := map[string]*modelItem{}
		keyOf := func() string { return fmt.Sprintf("k%d", rng.Intn(40)) }
		for op := 0; op < 2000; op++ {
			key := keyOf()
			switch rng.Intn(8) {
			case 0: // set
				v := fmt.Sprintf("v%d", op)
				if c.Set(key, len(v), 0.01, 0, []byte(v)) != nil {
					return false
				}
				_, _, cas, _ := c.GetWithCAS(key, nil)
				model[key] = &modelItem{value: v, cas: cas}
			case 1: // add
				v := fmt.Sprintf("a%d", op)
				err := c.SetMode(key, ModeAdd, 0, len(v), 0.01, 0, 0, []byte(v))
				if _, exists := model[key]; exists {
					if err == nil {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					_, _, cas, _ := c.GetWithCAS(key, nil)
					model[key] = &modelItem{value: v, cas: cas}
				}
			case 2: // replace
				v := fmt.Sprintf("r%d", op)
				err := c.SetMode(key, ModeReplace, 0, len(v), 0.01, 0, 0, []byte(v))
				if m, exists := model[key]; exists {
					if err != nil {
						return false
					}
					_, _, cas, _ := c.GetWithCAS(key, nil)
					m.value, m.cas = v, cas
				} else if err == nil {
					return false
				}
			case 3: // cas with the model's (correct) token
				if m, exists := model[key]; exists {
					v := fmt.Sprintf("c%d", op)
					if c.SetMode(key, ModeCAS, m.cas, len(v), 0.01, 0, 0, []byte(v)) != nil {
						return false
					}
					_, _, cas, _ := c.GetWithCAS(key, nil)
					m.value, m.cas = v, cas
				}
			case 4: // cas with a stale token
				if m, exists := model[key]; exists {
					if c.SetMode(key, ModeCAS, m.cas+1, 3, 0.01, 0, 0, []byte("xxx")) == nil {
						return false
					}
				}
			case 5: // delete
				removed := c.Delete(key)
				if _, exists := model[key]; exists != removed {
					return false
				}
				delete(model, key)
			case 6: // delta over a numeric value
				v := fmt.Sprintf("%d", rng.Intn(1000))
				c.Set(key, len(v), 0.01, 0, []byte(v))
				_, _, cas, _ := c.GetWithCAS(key, nil)
				model[key] = &modelItem{value: v, cas: cas}
				n, err := c.Delta(key, 7, false)
				if err != nil {
					return false
				}
				model[key].value = fmt.Sprintf("%d", n)
				model[key].cas = c.CASOf(key, 0, []byte(model[key].value)) // incr issues a new token
			default: // get
				val, _, hit := c.Get(key, 0, 0, nil)
				m, exists := model[key]
				if hit != exists {
					return false
				}
				if exists && string(val) != m.value {
					return false
				}
			}
			if op%100 == 99 && c.CheckInvariants() != nil {
				return false
			}
		}
		// Final agreement sweep.
		for key, m := range model {
			val, _, cas, hit := c.GetWithCAS(key, nil)
			if !hit || string(val) != m.value || cas != m.cas {
				return false
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// ---- Randomized oracle: full command set vs a map + LRU-order reference ----
//
// The engine is configured for exact LRU (one subclass, no segment tracker,
// do-nothing policy), so its behavior — including which key an over-capacity
// store evicts — is exactly predictable from a map plus an access-order
// list. The oracle drives Set/Add/Replace/CAS/Get/Gets/Delete/Delta/Touch/
// Flush with a controllable clock and checks full agreement.

// oracleEntry mirrors one resident item.
type oracleEntry struct {
	value    string
	cas      uint64 // 0 while the entry is expired-on-arrival (never read)
	expireAt int64
}

// oracleModel is the reference: entries + exact LRU order.
type oracleModel struct {
	entries map[string]*oracleEntry
	order   []string // order[0] = MRU, last = LRU victim
}

func (m *oracleModel) removeOrder(key string) {
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *oracleModel) pushFront(key string) {
	m.order = append([]string{key}, m.order...)
}

func (m *oracleModel) touchFront(key string) {
	m.removeOrder(key)
	m.pushFront(key)
}

// store mirrors SetTTL: replace frees the old incarnation first (so a
// replace never evicts), a fresh insert at capacity evicts the LRU tail.
func (m *oracleModel) store(key, value string, cas uint64, expireAt int64, capacity int) (evicted string) {
	if _, ok := m.entries[key]; ok {
		m.removeOrder(key)
		delete(m.entries, key)
	} else if len(m.order) >= capacity {
		evicted = m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.entries, evicted)
	}
	m.entries[key] = &oracleEntry{value: value, cas: cas, expireAt: expireAt}
	m.pushFront(key)
	return evicted
}

func (m *oracleModel) delete(key string) bool {
	if _, ok := m.entries[key]; !ok {
		return false
	}
	delete(m.entries, key)
	m.removeOrder(key)
	return true
}

// modelSeed returns the seed of a seeded model run: PAMA_MODEL_SEED when set
// (to replay a failure), the clock otherwise. The seed is logged either way.
func modelSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("PAMA_MODEL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PAMA_MODEL_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("model seed %d (rerun with PAMA_MODEL_SEED=%d)", seed, seed)
	return seed
}

// TestOracleFullCommandSet is the seeded oracle run. Rerun a failure with
// PAMA_MODEL_SEED=<logged seed>.
func TestOracleFullCommandSet(t *testing.T) {
	rng := rand.New(rand.NewSource(modelSeed(t)))
	for round := 0; round < 6; round++ {
		oracleRound(t, rng.Int63())
	}
}

func oracleRound(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := int64(1_000_000)

	// One 4 KiB slab of 64-byte slots: capacity 64, against ~96 keys, so
	// the run lives under constant eviction pressure.
	const capacity = 64
	const itemSize = 32
	c, err := New(Config{
		Geometry:    smallGeom(),
		CacheBytes:  4096,
		StoreValues: true,
		Stale:       valuetable.New(4096, 0),
		WindowLen:   997,
		Now:         func() int64 { return now },
	}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	model := &oracleModel{entries: map[string]*oracleEntry{}}
	// history records every value ever stored per key; GetStale must never
	// serve bytes outside it.
	history := map[string]map[string]bool{}
	recordHistory := func(key, value string) {
		if history[key] == nil {
			history[key] = map[string]bool{}
		}
		history[key][value] = true
	}
	keyOf := func() string { return fmt.Sprintf("k%d", rng.Intn(96)) }
	expiredNow := func(e *oracleEntry) bool { return e.expireAt != 0 && e.expireAt <= now }
	randomTTL := func() int64 {
		switch rng.Intn(10) {
		case 0: // already expired on arrival
			return now - 1
		case 1, 2: // expires soon
			return now + int64(1+rng.Intn(8))
		default: // never
			return 0
		}
	}
	// learnCAS reads the freshly stored token. The extra GetWithCAS is
	// harmless to LRU order (the key is already at the front) but would
	// reap an expired-on-arrival item, so those keep cas 0 unread.
	learnCAS := func(key string) uint64 {
		_, _, cas, ok := c.GetWithCAS(key, nil)
		if !ok {
			t.Fatalf("seed %d: stored key %q unreadable", seed, key)
		}
		return cas
	}

	for op := 0; op < 4000; op++ {
		if rng.Intn(20) == 0 {
			now += int64(1 + rng.Intn(4)) // let TTLs pass
		}
		key := keyOf()
		switch rng.Intn(16) {
		case 0, 1, 2: // set
			v := fmt.Sprintf("v%d", op)
			exp := randomTTL()
			if err := c.SetTTL(key, itemSize, 0.01, 0, exp, []byte(v)); err != nil {
				t.Fatalf("seed %d op %d: set: %v", seed, op, err)
			}
			e := &oracleEntry{value: v, expireAt: exp}
			model.store(key, v, 0, exp, capacity)
			if !expiredNow(e) {
				model.entries[key].cas = learnCAS(key)
			}
			recordHistory(key, v)
		case 3: // add
			v := fmt.Sprintf("a%d", op)
			err := c.SetMode(key, ModeAdd, 0, itemSize, 0.01, 0, 0, []byte(v))
			e, present := model.entries[key]
			if present && !expiredNow(e) {
				if err == nil {
					t.Fatalf("seed %d op %d: add over live key succeeded", seed, op)
				}
			} else {
				if err != nil {
					t.Fatalf("seed %d op %d: add: %v", seed, op, err)
				}
				model.store(key, v, 0, 0, capacity)
				model.entries[key].cas = learnCAS(key)
				recordHistory(key, v)
			}
		case 4: // replace
			v := fmt.Sprintf("r%d", op)
			err := c.SetMode(key, ModeReplace, 0, itemSize, 0.01, 0, 0, []byte(v))
			e, present := model.entries[key]
			if present && !expiredNow(e) {
				if err != nil {
					t.Fatalf("seed %d op %d: replace: %v", seed, op, err)
				}
				model.store(key, v, 0, 0, capacity)
				model.entries[key].cas = learnCAS(key)
				recordHistory(key, v)
			} else {
				if err == nil {
					t.Fatalf("seed %d op %d: replace of absent key succeeded", seed, op)
				}
				model.delete(key) // a dead find is reaped
			}
		case 5: // cas with the correct token
			e, present := model.entries[key]
			if !present || expiredNow(e) {
				continue
			}
			v := fmt.Sprintf("c%d", op)
			if err := c.SetMode(key, ModeCAS, e.cas, itemSize, 0.01, 0, 0, []byte(v)); err != nil {
				t.Fatalf("seed %d op %d: cas: %v", seed, op, err)
			}
			model.store(key, v, 0, 0, capacity)
			model.entries[key].cas = learnCAS(key)
			recordHistory(key, v)
		case 6: // cas with a stale token / against a dead key
			e, present := model.entries[key]
			var want error
			switch {
			case !present || expiredNow(e):
				want = ErrNotStored
				model.delete(key) // a dead find is reaped
			default:
				want = ErrCASMismatch
			}
			tok := uint64(1)
			if present {
				tok = e.cas + 1
			}
			err := c.SetMode(key, ModeCAS, tok, itemSize, 0.01, 0, 0, []byte("x"))
			if !errorsIs(err, want) {
				t.Fatalf("seed %d op %d: bad-cas -> %v, want %v", seed, op, err, want)
			}
		case 7: // delete: an expired item is not there to be deleted
			got := c.Delete(key)
			e, present := model.entries[key]
			model.delete(key)
			if want := present && !expiredNow(e); got != want {
				t.Fatalf("seed %d op %d: delete -> %v, want %v", seed, op, got, want)
			}
		case 8: // touch
			exp := randomTTL()
			got := c.Touch(key, exp)
			e, present := model.entries[key]
			want := present && !expiredNow(e)
			if got != want {
				t.Fatalf("seed %d op %d: touch -> %v, want %v", seed, op, got, want)
			}
			if want {
				e.expireAt = exp // no LRU move
			} else {
				model.delete(key) // a dead find is reaped
			}
		case 9: // incr/decr
			decr := rng.Intn(2) == 0
			delta := uint64(rng.Intn(1000))
			n, err := c.Delta(key, delta, decr)
			e, present := model.entries[key]
			switch {
			case !present || expiredNow(e):
				if !errorsIs(err, ErrNotStored) {
					t.Fatalf("seed %d op %d: delta on dead key -> %v", seed, op, err)
				}
				model.delete(key) // a dead find is reaped
			default:
				cur, perr := strconv.ParseUint(e.value, 10, 64)
				if perr != nil {
					if !errorsIs(err, ErrNotNumeric) {
						t.Fatalf("seed %d op %d: delta non-numeric -> %v", seed, op, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d op %d: delta: %v", seed, op, err)
				}
				var want uint64
				if decr {
					if delta > cur {
						want = 0
					} else {
						want = cur - delta
					}
				} else {
					want = cur + delta
				}
				if n != want {
					t.Fatalf("seed %d op %d: delta -> %d, want %d", seed, op, n, want)
				}
				// In place: no LRU move, a new CAS token.
				old := e.cas
				e.value = strconv.FormatUint(want, 10)
				if e.cas = c.CASOf(key, 0, []byte(e.value)); e.cas <= old {
					t.Fatalf("seed %d op %d: delta kept or lost the CAS token %d -> %d", seed, op, old, e.cas)
				}
				recordHistory(key, e.value)
			}
		case 10: // numeric seed for future deltas
			v := strconv.Itoa(rng.Intn(100000))
			if err := c.Set(key, itemSize, 0.01, 0, []byte(v)); err != nil {
				t.Fatalf("seed %d op %d: set: %v", seed, op, err)
			}
			model.store(key, v, 0, 0, capacity)
			model.entries[key].cas = learnCAS(key)
			recordHistory(key, v)
		case 11: // stale read: never fabricates bytes
			val, _, ok := c.GetStale(key, nil)
			if e, present := model.entries[key]; present {
				if !ok || string(val) != e.value {
					t.Fatalf("seed %d op %d: GetStale of resident %q -> %q ok=%v, want %q",
						seed, op, key, val, ok, e.value)
				}
			} else if ok && !history[key][string(val)] {
				t.Fatalf("seed %d op %d: GetStale served never-stored bytes %q for %q",
					seed, op, val, key)
			}
		case 13: // flush (rare)
			if rng.Intn(8) != 0 {
				continue
			}
			c.Flush()
			model.entries = map[string]*oracleEntry{}
			model.order = nil
			if _, _, ok := c.GetStale(key, nil); ok {
				t.Fatalf("seed %d op %d: stale copy survived flush_all", seed, op)
			}
		default: // get / gets
			e, present := model.entries[key]
			if rng.Intn(2) == 0 {
				val, _, hit := c.Get(key, 0, 0, nil)
				switch {
				case present && !expiredNow(e):
					if !hit || string(val) != e.value {
						t.Fatalf("seed %d op %d: get %q -> %q hit=%v, want %q",
							seed, op, key, val, hit, e.value)
					}
					model.touchFront(key)
				default:
					if hit {
						t.Fatalf("seed %d op %d: get of dead key %q hit", seed, op, key)
					}
					if present { // lazily reaped by this get
						model.delete(key)
					}
				}
			} else {
				val, _, cas, hit := c.GetWithCAS(key, nil)
				switch {
				case present && !expiredNow(e):
					if !hit || string(val) != e.value || cas != e.cas {
						t.Fatalf("seed %d op %d: gets %q -> (%q, cas %d, hit=%v), want (%q, cas %d)",
							seed, op, key, val, cas, hit, e.value, e.cas)
					}
					model.touchFront(key)
				default:
					if hit {
						t.Fatalf("seed %d op %d: gets of dead key %q hit", seed, op, key)
					}
					if present {
						model.delete(key)
					}
				}
			}
		}
		if op%512 == 511 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if got, want := c.Items(), len(model.entries); got != want {
				t.Fatalf("seed %d op %d: Items() = %d, model holds %d", seed, op, got, want)
			}
		}
	}

	// Final full-agreement sweep: every model entry must be served exactly
	// (or reaped as expired), and the engine must hold nothing beyond the
	// model.
	if got, want := c.Items(), len(model.entries); got != want {
		t.Fatalf("seed %d: final Items() = %d, model holds %d", seed, got, want)
	}
	for key, e := range model.entries {
		val, _, cas, hit := c.GetWithCAS(key, nil)
		if expiredNow(e) {
			if hit {
				t.Fatalf("seed %d: final gets of expired %q hit", seed, key)
			}
			continue
		}
		if !hit || string(val) != e.value || cas != e.cas {
			t.Fatalf("seed %d: final gets %q -> (%q, cas %d, hit=%v), want (%q, cas %d)",
				seed, key, val, cas, hit, e.value, e.cas)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: final invariants: %v", seed, err)
	}
}

// errorsIs avoids importing errors under a name colliding with test locals.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
