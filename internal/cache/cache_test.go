package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
)

// nullPolicy is a configurable do-nothing policy for engine tests.
type nullPolicy struct {
	bounds []float64
	nseg   int
	gseg   int
	c      *Cache

	hits      []int // segments seen by OnHit
	ghostSegs []int // segments seen by OnMiss ghost hits
	evicts    int
	windows   int
	makeRoom  func(class, sub int)
}

func (n *nullPolicy) Name() string              { return "null" }
func (n *nullPolicy) SubclassBounds() []float64 { return n.bounds }
func (n *nullPolicy) Segments() int             { return n.nseg }
func (n *nullPolicy) GhostSegments() int        { return n.gseg }
func (n *nullPolicy) Attach(c *Cache)           { n.c = c }
func (n *nullPolicy) MakeRoom(class, sub int) {
	if n.makeRoom != nil {
		n.makeRoom(class, sub)
	}
}
func (n *nullPolicy) OnHit(_ *kv.Item, seg int) { n.hits = append(n.hits, seg) }
func (n *nullPolicy) OnMiss(_, _ int, _ float64, gseg int) {
	if gseg >= 0 {
		n.ghostSegs = append(n.ghostSegs, gseg)
	}
}
func (n *nullPolicy) OnInsert(*kv.Item) {}
func (n *nullPolicy) OnEvict(*kv.Item)  { n.evicts++ }
func (n *nullPolicy) OnWindow()         { n.windows++ }

// smallGeom: 4 KiB slabs, classes 64/128/256/512 B.
// record returns key's resident record, or nil, touching no engine state.
// Callers hold c.mu or run at a quiescent point.
func (c *Cache) record(key string) *kv.Item {
	_, it := c.find(kv.HashString(key), key)
	return it
}

func smallGeom() kv.Geometry { return kv.Geometry{SlabSize: 4096, Base: 64, NumClasses: 4} }

// valueGeom is smallGeom one class up, 128 to 1024 bytes: a value-storing
// engine heads every slot with a 64-byte record, so smallGeom's class 0 holds
// no item there.
func valueGeom() kv.Geometry { return kv.Geometry{SlabSize: 4096, Base: 128, NumClasses: 4} }

func newTestCache(t *testing.T, slabs int, pol Policy) *Cache {
	t.Helper()
	c, err := New(Config{
		Geometry:   smallGeom(),
		CacheBytes: int64(slabs) * 4096,
		WindowLen:  1 << 50, // effectively no rollovers unless the test wants them
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewDefaults(t *testing.T) {
	c, err := New(Config{CacheBytes: 1 << 21}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Geometry().Equal(kv.DefaultGeometry()) {
		t.Fatal("zero geometry should default")
	}
	if c.NumSubclasses() != 1 {
		t.Fatal("nil bounds should give one subclass")
	}
}

func TestNewRejectsTinyCache(t *testing.T) {
	if _, err := New(Config{Geometry: smallGeom(), CacheBytes: 100}, &nullPolicy{}); err == nil {
		t.Fatal("cache smaller than one slab accepted")
	}
	// A record's class and subclass are 8 bits.
	slots := make([]int, 257)
	for i := range slots {
		slots[i] = 64 + 8*i
	}
	g, err := kv.NewTableGeometry(1<<20, slots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Geometry: g, CacheBytes: 1 << 20}, &nullPolicy{}); err == nil {
		t.Fatal("257 classes accepted")
	}
	if _, err := New(Config{Geometry: smallGeom(), CacheBytes: 4096}, &nullPolicy{bounds: make([]float64, 257)}); err == nil {
		t.Fatal("257 subclasses accepted")
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	pol := &nullPolicy{}
	c := newTestCache(t, 4, pol)
	if err := c.Set("k1", 50, 0.01, 7, nil); err != nil {
		t.Fatal(err)
	}
	_, flags, hit := c.Get("k1", 0, 0, nil)
	if !hit || flags != 7 {
		t.Fatalf("hit=%v flags=%d", hit, flags)
	}
	if _, _, hit := c.Get("absent", 0, 0, nil); hit {
		t.Fatal("phantom hit")
	}
	st := c.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Sets != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestValuesStoredAndCopied(t *testing.T) {
	c, err := New(Config{Geometry: smallGeom(), CacheBytes: 4 * 4096, StoreValues: true, WindowLen: 1 << 50}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("hello world")
	if err := c.Set("k", len(val), 0.01, 0, val); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X' // caller's buffer must not alias the stored value
	got, _, hit := c.Get("k", 0, 0, nil)
	if !hit || string(got) != "hello world" {
		t.Fatalf("got %q hit=%v", got, hit)
	}
	got[1] = 'Y' // returned copy must not alias either
	got2, _, _ := c.Get("k", 0, 0, nil)
	if string(got2) != "hello world" {
		t.Fatal("returned slice aliases stored value")
	}
}

func TestSetTooLarge(t *testing.T) {
	c := newTestCache(t, 2, &nullPolicy{})
	err := c.Set("big", 4096, 0.1, 0, nil) // > largest class slot (512)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if c.Stats().TooLarge != 1 {
		t.Fatal("TooLarge not counted")
	}
	// A record's key length is 16 bits: a longer key is refused whatever
	// its size.
	long := strings.Repeat("k", kv.MaxKeyLen+1)
	if err := c.Set(long, 100, 0.1, 0, nil); !errors.Is(err, ErrTooLarge) || c.Contains(long) {
		t.Fatalf("a %d-byte key: err = %v, want ErrTooLarge and nothing stored", len(long), err)
	}
	if err := c.Set(long[1:], 100, 0.1, 0, nil); err != nil || !c.Contains(long[1:]) {
		t.Fatalf("a %d-byte key: err = %v, want it stored", kv.MaxKeyLen, err)
	}
}

func TestClassPlacement(t *testing.T) {
	c := newTestCache(t, 4, &nullPolicy{})
	c.Set("a", 64, 0.1, 0, nil)  // class 0
	c.Set("b", 65, 0.1, 0, nil)  // class 1
	c.Set("d", 512, 0.1, 0, nil) // class 3
	if c.UsedSlots(0) != 1 || c.UsedSlots(1) != 1 || c.UsedSlots(3) != 1 {
		t.Fatalf("placement: %v %v %v", c.UsedSlots(0), c.UsedSlots(1), c.UsedSlots(3))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubclassPlacement(t *testing.T) {
	pol := &nullPolicy{bounds: []float64{0.01, 0.1, 5.0}}
	c := newTestCache(t, 4, pol)
	c.Set("cheap", 64, 0.005, 0, nil)
	c.Set("mid", 64, 0.05, 0, nil)
	c.Set("dear", 64, 2.0, 0, nil)
	if c.SubLen(0, 0) != 1 || c.SubLen(0, 1) != 1 || c.SubLen(0, 2) != 1 {
		t.Fatalf("sub lens: %d %d %d", c.SubLen(0, 0), c.SubLen(0, 1), c.SubLen(0, 2))
	}
}

func TestReplaceChangesClass(t *testing.T) {
	c := newTestCache(t, 4, &nullPolicy{})
	c.Set("k", 64, 0.1, 0, nil)
	c.Set("k", 200, 0.1, 0, nil) // moves class 0 -> 2
	if c.UsedSlots(0) != 0 || c.UsedSlots(2) != 1 {
		t.Fatalf("replace did not move classes: used0=%d used2=%d", c.UsedSlots(0), c.UsedSlots(2))
	}
	if c.Items() != 1 {
		t.Fatalf("Items = %d, want 1", c.Items())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	c := newTestCache(t, 4, &nullPolicy{})
	c.Set("k", 64, 0.1, 0, nil)
	if !c.Delete("k") {
		t.Fatal("Delete should report removal")
	}
	if c.Delete("k") {
		t.Fatal("second Delete should report false")
	}
	if c.Contains("k") || c.UsedSlots(0) != 0 {
		t.Fatal("item still accounted after delete")
	}
}

func TestGrowthPhaseGrantsFreeSlabs(t *testing.T) {
	c := newTestCache(t, 3, &nullPolicy{})
	// 64 items of class 0 fit in one slab (4096/64 = 64 slots).
	for i := 0; i < 65; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.Slabs(0) != 2 {
		t.Fatalf("class 0 slabs = %d, want 2 after overflow", c.Slabs(0))
	}
	if c.FreeSlabs() != 1 {
		t.Fatalf("free slabs = %d, want 1", c.FreeSlabs())
	}
}

func TestEngineFallbackEvictsWhenPolicyIdle(t *testing.T) {
	pol := &nullPolicy{} // MakeRoom does nothing
	c := newTestCache(t, 1, pol)
	// Fill the single slab (64 slots), then one more.
	for i := 0; i < 65; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.FallbackEvicts != 1 || st.Evictions != 1 {
		t.Fatalf("fallback=%d evictions=%d, want 1/1", st.FallbackEvicts, st.Evictions)
	}
	// k0 (the LRU) must be gone.
	if c.Contains("k0") {
		t.Fatal("LRU item survived eviction")
	}
	if !c.Contains("k64") {
		t.Fatal("new item missing")
	}
}

func TestNoSpaceWhenClassEmptyAndMemoryExhausted(t *testing.T) {
	pol := &nullPolicy{}
	c := newTestCache(t, 1, pol)
	for i := 0; i < 64; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil)
	}
	// Class 3 owns nothing and the policy won't migrate: SET must fail.
	err := c.Set("big", 512, 0.1, 0, nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if c.Stats().NoSpace != 1 {
		t.Fatal("NoSpace not counted")
	}
}

func TestPolicyMakeRoomCanMigrate(t *testing.T) {
	pol := &nullPolicy{}
	pol.makeRoom = func(class, sub int) {
		pol.c.MigrateSlab(0, 0, class)
	}
	c := newTestCache(t, 1, pol)
	for i := 0; i < 64; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil)
	}
	if err := c.Set("big", 512, 0.1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if c.Slabs(0) != 0 || c.Slabs(3) != 1 {
		t.Fatalf("migration failed: slabs0=%d slabs3=%d", c.Slabs(0), c.Slabs(3))
	}
	if c.Stats().Evictions != 64 {
		t.Fatalf("evictions = %d, want 64 (whole donor slab)", c.Stats().Evictions)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentAttributionOnHit(t *testing.T) {
	pol := &nullPolicy{nseg: 1}
	c := newTestCache(t, 2, pol)
	// 64 slots per slab in class 0; fill 70 items across 2 slabs. With a
	// single tracked segment, only the bottom 64 attribute.
	for i := 0; i < 70; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil)
	}
	pol.hits = nil
	c.Get("k0", 0, 0, nil) // bottom item -> candidate segment 0
	c.Get("k69", 0, 0, nil)
	if len(pol.hits) != 2 || pol.hits[0] != 0 {
		t.Fatalf("hits = %v, want first segment 0", pol.hits)
	}
	if pol.hits[1] != -1 {
		t.Fatalf("top-of-stack hit reported segment %d, want -1", pol.hits[1])
	}
}

func TestGhostRegionAttribution(t *testing.T) {
	pol := &nullPolicy{gseg: 2}
	c := newTestCache(t, 1, pol)
	for i := 0; i < 64; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil)
	}
	// Evict k0..k2 by inserting three more.
	for i := 64; i < 67; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil)
	}
	_, _, hit := c.Get("k0", 0, 0, nil)
	if hit {
		t.Fatal("evicted key should miss")
	}
	if len(pol.ghostSegs) != 1 || pol.ghostSegs[0] != 0 {
		t.Fatalf("ghostSegs = %v, want [0] (receiving segment)", pol.ghostSegs)
	}
	if c.Stats().GhostHits != 1 {
		t.Fatal("GhostHits not counted")
	}
	// Refill removes the ghost: a second miss on the key after re-eviction
	// of others must not be a ghost hit for k0.
	c.Set("k0", 50, 0.1, 0, nil)
	pol.ghostSegs = nil
	c.Delete("k0")
	c.Get("k0", 0, 0, nil)
	if len(pol.ghostSegs) != 0 {
		t.Fatalf("deleted key still ghost-attributed: %v", pol.ghostSegs)
	}
}

func TestGhostCapacityBounded(t *testing.T) {
	pol := &nullPolicy{gseg: 1}
	c := newTestCache(t, 1, pol)
	// Fill one slab then churn 500 more items: ghosts must stay <= 64.
	for i := 0; i < 564; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil)
	}
	// Very old eviction: ghost should have aged out.
	c.Get("k0", 0, 0, nil)
	if c.Stats().GhostHits != 0 {
		t.Fatal("ancient ghost survived capacity bound")
	}
	// Recent eviction: ghost hit expected.
	c.Get("k499", 0, 0, nil)
	if c.Stats().GhostHits != 1 {
		t.Fatal("recent ghost missing")
	}
}

func TestWindowRollover(t *testing.T) {
	pol := &nullPolicy{}
	c, err := New(Config{Geometry: smallGeom(), CacheBytes: 4 * 4096, WindowLen: 10}, pol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		c.Get("x", 0, 0, nil)
	}
	if pol.windows != 2 {
		t.Fatalf("windows = %d, want 2", pol.windows)
	}
	if c.Stats().WindowRollovers != 2 {
		t.Fatal("rollover stat mismatch")
	}
}

func TestWindowCountersAttribution(t *testing.T) {
	pol := &nullPolicy{}
	c := newTestCache(t, 4, pol)
	c.Set("k", 64, 0.1, 0, nil)
	c.Get("k", 0, 0, nil)         // hit -> class 0 req
	c.Get("nope", 200, 0.05, nil) // classed miss -> class 2 req+miss
	c.Get("nohint", 0, 0, nil)    // unclassed miss -> nothing
	if c.WindowReqs(0) != 1 || c.WindowReqs(2) != 1 || c.WindowMisses(2) != 1 {
		t.Fatalf("window counters: reqs0=%d reqs2=%d miss2=%d",
			c.WindowReqs(0), c.WindowReqs(2), c.WindowMisses(2))
	}
}

func TestSnapshotSubSlabs(t *testing.T) {
	pol := &nullPolicy{bounds: []float64{0.01, 5.0}}
	c := newTestCache(t, 2, pol)
	for i := 0; i < 32; i++ {
		c.Set(fmt.Sprintf("a%d", i), 50, 0.001, 0, nil) // sub 0
	}
	for i := 0; i < 16; i++ {
		c.Set(fmt.Sprintf("b%d", i), 50, 1.0, 0, nil) // sub 1
	}
	shares := c.SnapshotSubSlabs(0)
	if len(shares) != 2 || shares[0] != 0.5 || shares[1] != 0.25 {
		t.Fatalf("shares = %v, want [0.5 0.25]", shares)
	}
}

func TestLRUOrderWithinSub(t *testing.T) {
	c := newTestCache(t, 1, &nullPolicy{})
	for i := 0; i < 64; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.1, 0, nil)
	}
	c.Get("k0", 0, 0, nil) // refresh the LRU item
	c.Set("new", 50, 0.1, 0, nil)
	if !c.Contains("k0") {
		t.Fatal("recently touched item evicted")
	}
	if c.Contains("k1") {
		t.Fatal("true LRU item survived")
	}
}

// TestInvariantsUnderRandomTraffic fuzzes the engine with all features on
// (subclasses, segments, ghosts) against a resident-set model, checking
// accounting invariants throughout.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	for _, tk := range []TrackerKind{TrackerExact, TrackerBloom} {
		tk := tk
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			pol := &nullPolicy{bounds: []float64{0.01, 0.1, 5}, nseg: 3, gseg: 3}
			pol.makeRoom = func(class, sub int) {
				// Randomly migrate, or leave the in-class eviction to the
				// engine's fallback.
				if rng.Intn(2) == 0 {
					for d := 0; d < 4; d++ {
						if d != class && pol.c.Slabs(d) > 0 {
							pol.c.MigrateSlab(d, rng.Intn(3), class)
							return
						}
					}
				}
			}
			c, err := New(Config{
				Geometry:   smallGeom(),
				CacheBytes: 4 * 4096,
				WindowLen:  97,
				Tracker:    tk,
			}, pol)
			if err != nil {
				return false
			}
			model := map[string]bool{}
			for op := 0; op < 3000; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(300))
				switch rng.Intn(10) {
				case 0:
					c.Delete(key)
					delete(model, key)
				case 1, 2, 3:
					size := 1 + rng.Intn(512)
					pen := []float64{0.001, 0.05, 2.0}[rng.Intn(3)]
					if c.Set(key, size, pen, 0, nil) == nil {
						model[key] = true
					}
				default:
					_, _, hit := c.Get(key, 64, 0.05, nil)
					if hit && !model[key] {
						return false // hit on a key never set
					}
				}
				if op%200 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Logf("invariant violation (tracker %v): %v", tk, err)
						return false
					}
				}
			}
			return c.CheckInvariants() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("tracker %v: %v", tk, err)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	now := int64(1000)
	pol := &nullPolicy{}
	c, err := New(Config{
		Geometry:   smallGeom(),
		CacheBytes: 4 * 4096,
		WindowLen:  1 << 50,
		Now:        func() int64 { return now },
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTTL("soon", 50, 0.1, 0, 1010, nil)
	c.SetTTL("later", 50, 0.1, 0, 2000, nil)
	c.Set("never", 50, 0.1, 0, nil)
	if _, _, hit := c.Get("soon", 0, 0, nil); !hit {
		t.Fatal("unexpired item missed")
	}
	now = 1010 // deadline is inclusive: expireAt <= now means dead
	if _, _, hit := c.Get("soon", 0, 0, nil); hit {
		t.Fatal("expired item served")
	}
	if c.Stats().Expired != 1 {
		t.Fatalf("Expired = %d, want 1", c.Stats().Expired)
	}
	if _, _, hit := c.Get("later", 0, 0, nil); !hit {
		t.Fatal("later item should survive")
	}
	if _, _, hit := c.Get("never", 0, 0, nil); !hit {
		t.Fatal("no-TTL item should survive")
	}
	// The reaped item freed its slot.
	if c.UsedSlots(0) != 2 {
		t.Fatalf("used slots = %d, want 2", c.UsedSlots(0))
	}
	// Re-set over an expired-but-unreaped item works.
	c.SetTTL("soon", 50, 0.1, 0, 3000, nil)
	if _, _, hit := c.Get("soon", 0, 0, nil); !hit {
		t.Fatal("re-set item missed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTTLWallClockDefault(t *testing.T) {
	// Without Config.Now the engine uses real time: a deadline in the
	// past expires immediately, one far in the future does not.
	c := newTestCache(t, 2, &nullPolicy{})
	c.SetTTL("old", 50, 0.1, 0, 1, nil)
	c.SetTTL("new", 50, 0.1, 0, 1<<40, nil)
	if _, _, hit := c.Get("old", 0, 0, nil); hit {
		t.Fatal("epoch-1 deadline should be expired")
	}
	if _, _, hit := c.Get("new", 0, 0, nil); !hit {
		t.Fatal("far-future deadline should live")
	}
}

func TestFlush(t *testing.T) {
	pol := &nullPolicy{bounds: []float64{0.01, 5}, nseg: 2, gseg: 2}
	c := newTestCache(t, 2, pol)
	// 150 items into 128 slots: the last 22 evict, populating ghosts.
	for i := 0; i < 150; i++ {
		c.Set(fmt.Sprintf("k%d", i), 50, 0.001, 0, nil)
	}
	slabsBefore := c.Slabs(0)
	c.Flush()
	if c.Items() != 0 {
		t.Fatalf("items after flush = %d", c.Items())
	}
	if c.UsedSlots(0) != 0 {
		t.Fatal("slots still accounted after flush")
	}
	if c.Slabs(0) != slabsBefore {
		t.Fatal("flush must not return slabs to the pool (Memcached semantics)")
	}
	// Ghosts are gone: no ghost attribution on miss.
	pol.ghostSegs = nil
	c.Get("k0", 0, 0, nil)
	if len(pol.ghostSegs) != 0 {
		t.Fatal("ghost memory survived flush")
	}
	// Cache is fully usable afterwards.
	if err := c.Set("fresh", 50, 0.001, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccessSafe(t *testing.T) {
	c := newTestCache(t, 4, &nullPolicy{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("g%d-%d", g, i%50)
				switch i % 3 {
				case 0:
					c.Set(key, 64, 0.01, 0, nil)
				case 1:
					c.Get(key, 0, 0, nil)
				case 2:
					c.Delete(key)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
