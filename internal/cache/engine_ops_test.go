package cache_test

// Every keyed command, on every slab policy the server can be started with,
// against a key in every state a key can be in — resident, recently evicted
// (a ghost, where the policy keeps ghosts), expired and never seen. The crash
// this guards against lived in one cell of that table: GetWithCAS × PAMA ×
// ghost.
//
// The tables run each policy twice, as /ring0 and /ring256: with the
// deprecated Config.AccessBuffer unset and set to what the benchmark module's
// traced run still passes. The engine ignores the field, so both take the one
// read path; the second run shows the field changes nothing.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/sim"
	"pamakv/internal/valuetable"
)

// slabPolicies are the names `pama-server -policy` accepts.
var slabPolicies = sim.SlabKinds()

var opsGeometry = kv.Geometry{SlabSize: 4096, Base: 64, NumClasses: 5}

// opsEngine is a 12-slab engine of the named policy on a clock the test owns,
// filled to several times its capacity with a fixed mix of sizes and
// penalties.
type opsEngine struct {
	*cache.Cache
	now      int64
	resident []string // filled and still there, oldest first
	evicted  []string // filled and gone, most recently stored last
	expired  []string // resident, their TTL passed
	nevers   int      // never-seen keys handed out
}

func newOpsEngine(t testing.TB, kind string, accessBuffer int) *opsEngine {
	t.Helper()
	pol, err := sim.PolicySpec{Kind: kind}.Build()
	if err != nil || pol == nil {
		t.Fatalf("policy %q: %v", kind, err)
	}
	e := &opsEngine{now: 1_000_000}
	e.Cache, err = cache.New(cache.Config{
		Geometry: opsGeometry, CacheBytes: 12 * 4096, StoreValues: true, Stale: valuetable.New(1<<20, 0),
		WindowLen: 300, AccessBuffer: accessBuffer, Now: func() int64 { return e.now },
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{40, 100, 200, 400, 900}
	pens := []float64{0.0005, 0.005, 0.05, 0.5, 2}
	var filled []string
	for i := 0; i < 1200; i++ {
		key := fmt.Sprintf("f%d", i)
		size := sizes[(i/3)%len(sizes)]
		if err := e.Set(key, size, pens[i%len(pens)], 0, make([]byte, size-len(key))); err != nil {
			t.Fatalf("fill %s: %v", key, err)
		}
		if i%7 == 0 { // re-reads between the stores, so hits shape the stacks too
			e.Get(fmt.Sprintf("f%d", i/2), 0, 0, nil)
		}
		filled = append(filled, key)
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("x%d", i)
		if err := e.SetTTL(key, 100, 0.05, 0, e.now+1, []byte("ttl")); err != nil {
			t.Fatalf("fill %s: %v", key, err)
		}
		e.expired = append(e.expired, key)
	}
	e.now += 2
	for _, key := range filled {
		if e.Contains(key) {
			e.resident = append(e.resident, key)
		} else {
			e.evicted = append(e.evicted, key)
		}
	}
	if len(e.resident) < 60 || len(e.evicted) < 60 {
		t.Fatalf("%s: fill left %d resident, %d evicted", kind, len(e.resident), len(e.evicted))
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("%s after fill: %v", kind, err)
	}
	return e
}

// take removes and returns n keys of the given state; evicted keys come most
// recent first (the ones a ghost region still remembers), residents newest
// first (the ones the commands before this one are least likely to have
// pushed out).
func (e *opsEngine) take(t testing.TB, state string, n int) []string {
	t.Helper()
	pop := func(s *[]string) []string {
		if len(*s) < n {
			t.Fatalf("out of %s keys", state)
		}
		out := (*s)[len(*s)-n:]
		*s = (*s)[:len(*s)-n]
		return out
	}
	switch state {
	case "resident":
		return pop(&e.resident)
	case "evicted":
		return pop(&e.evicted)
	case "expired":
		return pop(&e.expired)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("never%d", e.nevers)
		e.nevers++
	}
	return out
}

var keyStates = []string{"resident", "evicted", "expired", "never"}

func TestEveryCommandPolicyAndKeyState(t *testing.T) {
	commands := []struct {
		name string
		// run applies the command to key, whose item is live iff live, and
		// reports what it answered wrongly ("" when right).
		run func(e *opsEngine, key string, live bool) string
	}{
		{"Get", func(e *opsEngine, key string, live bool) string {
			_, _, hit := e.Get(key, 0, 0, nil)
			return wrong(hit != live, "hit=%v", hit)
		}},
		{"GetWithCAS", func(e *opsEngine, key string, live bool) string {
			_, _, cas, hit := e.GetWithCAS(key, nil)
			return wrong(hit != live || (cas != 0) != live, "hit=%v cas=%d", hit, cas)
		}},
		{"add", func(e *opsEngine, key string, live bool) string {
			err := e.SetMode(key, cache.ModeAdd, 0, 100, 0.05, 0, 0, []byte("added"))
			return wrong(errors.Is(err, cache.ErrNotStored) != live || (err != nil && !live), "%v", err)
		}},
		{"replace", func(e *opsEngine, key string, live bool) string {
			err := e.SetMode(key, cache.ModeReplace, 0, 100, 0.05, 0, 0, []byte("replaced"))
			return wrong((err == nil) != live || (err != nil && !errors.Is(err, cache.ErrNotStored)), "%v", err)
		}},
		{"cas", func(e *opsEngine, key string, live bool) string {
			_, _, tok, _ := e.GetWithCAS(key, nil)
			if err := e.SetMode(key, cache.ModeCAS, tok+1, 100, 0.05, 0, 0, []byte("no")); live != errors.Is(err, cache.ErrCASMismatch) {
				return fmt.Sprintf("wrong token: %v", err)
			}
			err := e.SetMode(key, cache.ModeCAS, tok, 100, 0.05, 0, 0, []byte("swapped"))
			return wrong((err == nil) != live || (err != nil && !errors.Is(err, cache.ErrNotStored)), "%v", err)
		}},
		{"append", func(e *opsEngine, key string, live bool) string {
			return concat(e, key, live, cache.ModeAppend)
		}},
		{"prepend", func(e *opsEngine, key string, live bool) string {
			return concat(e, key, live, cache.ModePrepend)
		}},
		{"Touch", func(e *opsEngine, key string, live bool) string {
			ok := e.Touch(key, e.now+100)
			return wrong(ok != live, "%v", ok)
		}},
		{"Delta", func(e *opsEngine, key string, live bool) string {
			if live {
				if err := e.Set(key, 100, 0.05, 0, []byte("41")); err != nil {
					return err.Error()
				}
			}
			n, err := e.Delta(key, 1, false)
			return wrong((err == nil && n == 42) != live || (err != nil && !errors.Is(err, cache.ErrNotStored)), "%d, %v", n, err)
		}},
		{"Delete", func(e *opsEngine, key string, live bool) string {
			ok := e.Delete(key)
			if _, _, hit := e.Get(key, 0, 0, nil); hit {
				return "still readable"
			}
			return wrong(ok != live, "%v", ok)
		}},
		{"GetStale", func(e *opsEngine, key string, live bool) string {
			val, _, ok := e.GetStale(key, nil)
			return wrong((live && !ok) || (ok && len(val) == 0), "ok=%v, %d bytes", ok, len(val))
		}},
	}
	for _, kind := range slabPolicies {
		for _, ring := range []int{0, 256} {
			t.Run(fmt.Sprintf("%s/ring%d", kind, ring), func(t *testing.T) {
				e := newOpsEngine(t, kind, ring)
				for _, cmd := range commands {
					for _, state := range keyStates {
						for _, key := range e.take(t, state, 3) {
							// Whatever ran before may have evicted a resident.
							live := state == "resident" && e.Contains(key)
							if bad := cmd.run(e, key, live); bad != "" {
								t.Errorf("%s of %s key %q (live=%v) answered %s", cmd.name, state, key, live, bad)
							}
						}
					}
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("after %s: %v", cmd.name, err)
					}
				}
				if st := e.Stats(); st.Expired == 0 || st.Evictions == 0 {
					t.Errorf("table did not reach expiry and eviction: %+v", st)
				}
			})
		}
	}
}

// concat appends or prepends "++" to key under flags of its own, and reports
// what is wrong: live, the value must have grown by it on its side with the
// item's flags kept; not live, the store must be refused and create nothing.
func concat(e *opsEngine, key string, live bool, mode cache.SetMode) string {
	before, _, _ := e.Get(key, 0, 0, nil)
	err := e.SetMode(key, mode, 0, 100, 0.05, 9, 0, []byte("++"))
	after, flags, hit := e.Get(key, 0, 0, nil)
	if !live {
		return wrong(!errors.Is(err, cache.ErrNotStored) || hit, "%v, then hit=%v", err, hit)
	}
	want := string(before) + "++"
	if mode == cache.ModePrepend {
		want = "++" + string(before)
	}
	return wrong(err != nil || string(after) != want || flags != 0, "%v, then %d bytes (want %d) with flags %d", err, len(after), len(want), flags)
}

func wrong(bad bool, format string, args ...any) string {
	if !bad {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// TestGetAndGetsAreAccountedAlike: the same reads issued as get and as gets
// leave the same counters, the same window attribution and the same policy
// state behind — gets is a get that also returns a token.
func TestGetAndGetsAreAccountedAlike(t *testing.T) {
	for _, kind := range slabPolicies {
		for _, ring := range []int{0, 256} {
			t.Run(fmt.Sprintf("%s/ring%d", kind, ring), func(t *testing.T) {
				a, b := newOpsEngine(t, kind, ring), newOpsEngine(t, kind, ring)
				var keys []string
				for _, state := range keyStates {
					keys = append(keys, a.take(t, state, 30)...)
				}
				for round := 0; round < 3; round++ {
					for _, key := range keys {
						_, _, hitA := a.Get(key, 0, 0, nil)
						_, _, _, hitB := b.GetWithCAS(key, nil)
						if hitA != hitB {
							t.Fatalf("round %d: get %q hit=%v, gets hit=%v", round, key, hitA, hitB)
						}
					}
				}
				sa, sb := a.Stats(), b.Stats()
				if sa != sb {
					t.Errorf("stats differ:\n get  %+v\n gets %+v", sa, sb)
				}
				if sa.GhostHits == 0 && (kind == "pama" || kind == "pre-pama") {
					t.Errorf("no ghost hit among the evicted keys: %+v", sa)
				}
				for cl := 0; cl < opsGeometry.NumClasses; cl++ {
					if a.WindowReqs(cl) != b.WindowReqs(cl) || a.WindowMisses(cl) != b.WindowMisses(cl) {
						t.Errorf("class %d window: get %d reqs %d misses, gets %d reqs %d misses", cl,
							a.WindowReqs(cl), a.WindowMisses(cl), b.WindowReqs(cl), b.WindowMisses(cl))
					}
				}
				if ia, ib := a.Introspect(), b.Introspect(); !reflect.DeepEqual(ia, ib) {
					t.Errorf("introspection differs:\n get  %+v\n gets %+v", ia, ib)
				}
				for _, e := range []*opsEngine{a, b} {
					if err := e.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// fuzzKeys are the sixteen keys FuzzEngineOps draws from, names "k<n>" whose
// hashes' low 13 bits read 8188–8191, so they share the last four home slots
// of every index the engine sizes (512 to 8192 slots). Their probe runs
// collide and wrap to slot 0, which is what the indexes' CheckInvariants
// needs to see; sixteen spread keys form no runs. The first twelve are the
// first such names; the last four are tagTwins.
var fuzzKeys = func() []string {
	var keys []string
	for n := 0; len(keys) < 12; n++ {
		if k := fmt.Sprintf("k%d", n); kv.HashString(k)&8191 >= 8188 {
			keys = append(keys, k)
		}
	}
	for i := 0; i < len(tagTwins); i += 2 {
		a, b := kv.HashString(tagTwins[i]), kv.HashString(tagTwins[i+1])
		if uint32(a) != uint32(b) || a == b || a&8191 < 8188 {
			panic("tagTwins " + tagTwins[i] + ", " + tagTwins[i+1] + " do not share a tag")
		}
	}
	return append(keys, tagTwins...)
}()

// tagTwins are two pairs of keys whose hashes share their low 32 bits, the
// index slot's tag, and differ above them (found by a birthday search over
// "k<n>"): each pair shares a home and a tag in every index, so an index
// that trusts a tag match, or a ghost audit that does, answers for the other
// key.
var tagTwins = []string{"k1403108", "k1689735", "k105042", "k2653568"}

// FuzzEngineOps decodes a byte string into operations over sixteen keys on a
// four-slab engine — small enough that a few dozen bytes reach eviction, ghost
// hits, expiry and slab migration — under PAMA and PSA, with prefetches of the
// keys in between. Nothing may panic, and the accounting, segment tags and
// boundaries included, must hold after every operation. Every value is its
// key's tag byte repeated (or digits, after a Delta), so a record id reused,
// or a slot compacted, under the wrong key reads back another key's bytes.
func FuzzEngineOps(f *testing.F) {
	// Fill a class to twice its capacity, then read every key back as gets:
	// the sequence that killed the server.
	crash := []byte{}
	for k := byte(0); k < 16; k++ {
		crash = append(crash, 2, k, 201)
	}
	for k := byte(0); k < 16; k++ {
		crash = append(crash, 1, k, 0)
	}
	f.Add(crash)
	f.Add([]byte{2, 1, 10, 12, 0, 3, 0, 1, 0, 1, 1, 0, 7, 1, 0, 9, 1, 0})
	// Grow one key through every class by appends and prepends, past the
	// largest.
	f.Add([]byte{2, 3, 20, 14, 3, 40, 15, 3, 90, 14, 3, 150, 15, 3, 250, 14, 3, 255})
	// Tag twins (keys 12–15): store, read and delete one of each pair
	// beside the other, evict both pairs into ghosts by filling the class,
	// then store one twin back while the other stays a ghost and read it.
	twins := []byte{2, 12, 201, 2, 13, 201, 0, 12, 0, 0, 13, 0, 8, 12, 0, 0, 13, 0, 2, 14, 201, 2, 15, 201}
	for k := byte(0); k < 12; k++ {
		twins = append(twins, 2, k, 201)
	}
	twins = append(twins, 2, 12, 201, 0, 13, 0, 2, 15, 201, 13, 12, 0, 0, 14, 0, 8, 15, 0, 0, 14, 0)
	f.Add(twins)
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, kind := range []string{"pama", "psa"} {
			runFuzzOps(t, kind, ops)
		}
	})
}

func runFuzzOps(t *testing.T, kind string, ops []byte) {
	pol, _ := sim.PolicySpec{Kind: kind}.Build()
	now := int64(1_000_000)
	c, err := cache.New(cache.Config{
		Geometry: kv.Geometry{SlabSize: 1024, Base: 64, NumClasses: 4}, CacheBytes: 4 * 1024,
		StoreValues: true, Stale: valuetable.New(1<<20, 0), WindowLen: 16, Now: func() int64 { return now },
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	pens := []float64{0.0005, 0.005, 0.05, 0.5, 2}
	for ; len(ops) >= 3; ops = ops[3:] {
		key := fuzzKeys[ops[1]%16]
		arg := int(ops[2])
		size := 1 + arg*2 // up to 511: every class
		val := bytes.Repeat([]byte{fuzzTag(key)}, size)
		pen := pens[arg%len(pens)]
		var ttl int64
		if arg%5 == 0 {
			ttl = now + int64(arg%3)
		}
		switch ops[0] % 16 {
		case 0, 11: // 11 is a second plain read, so the other op numbers keep their meaning
			c.Get(key, 0, 0, nil)
		case 1:
			c.GetWithCAS(key, nil)
		case 2:
			c.SetTTL(key, size, pen, 0, ttl, val)
		case 3:
			c.SetMode(key, cache.ModeAdd, 0, size, pen, 0, ttl, val)
		case 4:
			c.SetMode(key, cache.ModeReplace, 0, size, pen, 0, ttl, val)
		case 5:
			_, _, tok, _ := c.GetWithCAS(key, nil)
			c.SetMode(key, cache.ModeCAS, tok, size, pen, 0, ttl, val)
		case 6:
			c.Touch(key, ttl)
		case 7:
			c.Set(key, 8, pen, 0, []byte("7"))
			c.Delta(key, uint64(arg), arg%2 == 0)
		case 8:
			c.Delete(key)
		case 9:
			c.GetStale(key, nil)
		case 10:
			c.Get(key, size, pen, nil) // a replayer's get: the miss is attributed by hint
		case 12:
			now += int64(arg % 4)
		case 13:
			c.Prefetch(fuzzKeys[arg%16:]) // read-only: the next operations must not notice
		case 14:
			c.SetMode(key, cache.ModeAppend, 0, size, pen, 0, ttl, val)
		case 15:
			c.SetMode(key, cache.ModePrepend, 0, size, pen, 0, ttl, val)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s after op %d: %v", kind, ops[0]%16, err)
		}
		seen := map[uint32]bool{}
		cache.RangeRecords(c, func(id uint32, key string, value []byte) {
			tag := fuzzTag(key)
			if seen[id] || slices.ContainsFunc(value, func(b byte) bool { return b != tag && (b < '0' || b > '9') }) {
				t.Fatalf("%s after op %d: record %d holds %q with value %q", kind, ops[0]%16, id, key, value)
			}
			seen[id] = true
		})
	}
}

// fuzzTag is the byte every value FuzzEngineOps stores under key repeats.
func fuzzTag(key string) byte { return byte('A' + slices.Index(fuzzKeys, key)) }
