package policy

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

// campSeed returns the deterministic oracle seed, overridable for replay:
//
//	PAMA_MODEL_SEED=12345 go test ./internal/policy -run CAMPOracle
func campSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(0xCA3B)
	if s := os.Getenv("PAMA_MODEL_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PAMA_MODEL_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("oracle seed %d (replay with PAMA_MODEL_SEED=%d)", seed, seed)
	return seed
}

// refEntry is the naive reference implementation's record: a flat slice
// scanned linearly for the minimum (priority, sequence) on every eviction —
// the O(n) priority queue CAMP's multi-queue structure approximates exactly.
type refEntry struct {
	key  string
	r    float64 // rounded cost/size ratio, fixed at insert (queue identity)
	prio float64
	seq  uint64
}

type refCAMP struct {
	l       float64
	seq     uint64
	entries []refEntry
	round   func(float64) float64
}

func (m *refCAMP) find(key string) int {
	for i := range m.entries {
		if m.entries[i].key == key {
			return i
		}
	}
	return -1
}

func (m *refCAMP) insert(key string, pen float64, size int) {
	if i := m.find(key); i >= 0 {
		m.entries = append(m.entries[:i], m.entries[i+1:]...)
	}
	m.seq++
	r := m.round(pen / float64(size))
	m.entries = append(m.entries, refEntry{key: key, r: r, prio: m.l + r, seq: m.seq})
}

// hit re-inflates the entry's priority with its original rounded ratio —
// CAMP keeps a hit item in its queue, so the queue's r applies, not a
// recomputed one.
func (m *refCAMP) hit(key string) {
	i := m.find(key)
	if i < 0 {
		return
	}
	m.seq++
	m.entries[i].prio = m.l + m.entries[i].r
	m.entries[i].seq = m.seq
}

// evict removes and returns the minimum-(prio, seq) entry, raising the
// inflation clock to its priority.
func (m *refCAMP) evict() string {
	best := 0
	for i := 1; i < len(m.entries); i++ {
		e, b := m.entries[i], m.entries[best]
		if e.prio < b.prio || (e.prio == b.prio && e.seq < b.seq) {
			best = i
		}
	}
	v := m.entries[best]
	if v.prio > m.l {
		m.l = v.prio
	}
	m.entries = append(m.entries[:best], m.entries[best+1:]...)
	return v.key
}

func singleClassCache(t *testing.T, slabs, slot int, pol cache.Policy) *cache.Cache {
	t.Helper()
	g, err := kv.NewTableGeometry(4096, []int{slot})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{
		Geometry:   g,
		CacheBytes: int64(slabs) * 4096,
		WindowLen:  1 << 50,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCAMPShape(t *testing.T) {
	pol := NewCAMP()
	if pol.SubclassBounds() != nil || pol.Segments() != 0 || pol.GhostSegments() != 0 {
		t.Fatal("camp must run bare stacks")
	}
	if pol.Name() != "camp" {
		t.Fatal("policy name drifted")
	}
}

// TestCAMPOracleEvictionOrder drives a single-class cache with a seeded
// stream of inserts, hits, and replaces, and checks that every eviction the
// engine performs matches the victim a naive scan-all priority queue picks
// under the same L + rounded(cost/size) rule. Exact agreement, no slack:
// the multi-queue structure is an optimization, not an approximation.
func TestCAMPOracleEvictionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(campSeed(t)))
	pol := NewCAMP()
	const slabs, slot = 2, 256
	c := singleClassCache(t, slabs, slot, pol)
	capacity := slabs * (4096 / slot)

	ref := &refCAMP{round: pol.RoundRatio}
	live := make(map[string]struct{})
	penalties := []float64{0.001, 0.01, 0.1, 1, 5}

	nextKey := 0
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r < 6: // insert a fresh key
			key := fmt.Sprintf("k%d", nextKey)
			nextKey++
			pen := penalties[rng.Intn(len(penalties))]
			size := 1 + rng.Intn(slot)
			if len(live) >= capacity {
				want := ref.evict()
				if err := c.Set(key, size, pen, 0, nil); err != nil {
					t.Fatalf("op %d: set %s: %v", op, key, err)
				}
				if c.Contains(want) {
					t.Fatalf("op %d: reference evicts %q but engine kept it", op, want)
				}
				delete(live, want)
			} else if err := c.Set(key, size, pen, 0, nil); err != nil {
				t.Fatalf("op %d: set %s: %v", op, key, err)
			}
			ref.insert(key, pen, size)
			live[key] = struct{}{}
		case r < 9: // hit a resident key
			if len(live) == 0 {
				continue
			}
			var key string
			n := rng.Intn(len(live))
			for k := range live {
				if n == 0 {
					key = k
					break
				}
				n--
			}
			if _, _, hit := c.Get(key, 0, 0, nil); !hit {
				t.Fatalf("op %d: resident %q missed", op, key)
			}
			if ref.find(key) < 0 {
				t.Fatalf("op %d: %q live but absent from reference", op, key)
			}
			ref.hit(key)
		default: // replace a resident key (never evicts: old slot freed first)
			if len(live) == 0 {
				continue
			}
			var key string
			n := rng.Intn(len(live))
			for k := range live {
				if n == 0 {
					key = k
					break
				}
				n--
			}
			pen := penalties[rng.Intn(len(penalties))]
			size := 1 + rng.Intn(slot)
			if err := c.Set(key, size, pen, 0, nil); err != nil {
				t.Fatalf("op %d: replace %s: %v", op, key, err)
			}
			ref.insert(key, pen, size)
		}
		// The engine and the model must always agree on residency.
		if len(live) != c.Introspect().Items {
			t.Fatalf("op %d: model %d items, engine %d", op, len(live), c.Introspect().Items)
		}
	}
	if c.Stats().FallbackEvicts != 0 {
		t.Fatalf("engine fell back past the policy %d times; oracle invalid", c.Stats().FallbackEvicts)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("trace never evicted; oracle exercised nothing")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// runSkewedCostTrace replays a fixed trace against pol and returns the
// penalty-weighted miss cost: a small set of expensive keys is re-read on a
// cycle while a flood of cheap one-shot keys churns the cache. Plain LRU
// lets the churn wash the expensive set out; a cost-aware policy must not.
func runSkewedCostTrace(t *testing.T, pol cache.Policy) float64 {
	t.Helper()
	const (
		slabs, slot = 2, 256 // capacity 32 items
		hotKeys     = 20
		hotPen      = 5.0
		churnPen    = 0.01
		size        = 100
	)
	c := singleClassCache(t, slabs, slot, pol)
	cost := 0.0
	for i := 0; i < 6000; i++ {
		// One cheap one-shot key per step: always a (cheap) miss.
		churn := fmt.Sprintf("churn%d", i)
		if _, _, hit := c.Get(churn, size, churnPen, nil); !hit {
			cost += churnPen
			if err := c.Set(churn, size, churnPen, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Every other step revisits the expensive working set.
		if i%2 == 0 {
			hot := fmt.Sprintf("hot%d", (i/2)%hotKeys)
			if _, _, hit := c.Get(hot, size, hotPen, nil); !hit {
				cost += hotPen
				if err := c.Set(hot, size, hotPen, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return cost
}

// TestCAMPBeatsLRUOnSkewedCosts is the regression gate from the issue: on a
// skewed-cost trace CAMP's penalty-weighted miss cost must undercut plain
// LRU's by a wide margin, not a rounding error.
func TestCAMPBeatsLRUOnSkewedCosts(t *testing.T) {
	lru := runSkewedCostTrace(t, NewStatic())
	camp := runSkewedCostTrace(t, NewCAMP())
	t.Logf("penalty-weighted miss cost: lru=%.2f camp=%.2f", lru, camp)
	if camp >= 0.5*lru {
		t.Fatalf("camp cost %.2f not < 50%% of lru cost %.2f", camp, lru)
	}
}

// TestCAMPMirrorAcrossRemovals checks the mirror stays consistent through
// delete, replace, expiry, and flush — the RemovalObserver paths.
func TestCAMPMirrorAcrossRemovals(t *testing.T) {
	pol := NewCAMP()
	c := singleClassCache(t, 2, 256, pol)
	for i := 0; i < 20; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), 100, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Delete("k3")
	if err := c.Set("k4", 50, 2, 0, nil); err != nil { // replace
		t.Fatal(err)
	}
	if got := len(pol.entries); got != 19 {
		t.Fatalf("mirror has %d entries, want 19", got)
	}
	if _, _, ok := pol.Victim(); !ok {
		t.Fatal("mirror lost its entries")
	}
	c.Flush()
	if len(pol.entries) != 0 || len(pol.queues) != 0 {
		t.Fatalf("flush left %d entries / %d queues in mirror", len(pol.entries), len(pol.queues))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
