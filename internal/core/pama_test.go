package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

func smallGeom() kv.Geometry { return kv.Geometry{SlabSize: 4096, Base: 64, NumClasses: 4} }

func newPAMACache(t *testing.T, slabs int, cfg Config) (*cache.Cache, *PAMA) {
	t.Helper()
	p := New(cfg)
	c, err := cache.New(cache.Config{
		Geometry:   smallGeom(),
		CacheBytes: int64(slabs) * 4096,
		WindowLen:  256,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestConfigDefaults(t *testing.T) {
	p := New(DefaultConfig())
	if p.Name() != "pama" || p.Segments() != 3 || p.GhostSegments() != 3 {
		t.Fatalf("defaults: name=%q segs=%d ghost=%d", p.Name(), p.Segments(), p.GhostSegments())
	}
	if len(p.SubclassBounds()) != 5 {
		t.Fatalf("bounds = %v, want the paper's 5 subclasses", p.SubclassBounds())
	}
	pre := New(PrePAMAConfig())
	if pre.Name() != "pre-pama" || pre.SubclassBounds() != nil {
		t.Fatalf("pre-PAMA: name=%q bounds=%v", pre.Name(), pre.SubclassBounds())
	}
	if neg := New(Config{M: -3, PenaltyAware: true}); neg.Segments() != 1 {
		t.Fatalf("negative M should clamp to 0 references, got %d segments", neg.Segments())
	}
}

func TestWeightReflectsPenaltyAwareness(t *testing.T) {
	pa, pre := New(DefaultConfig()), New(PrePAMAConfig())
	if pa.weight(2.5) != 2.5 {
		t.Fatal("PAMA weight should be the penalty")
	}
	if pre.weight(2.5) != 1 {
		t.Fatal("pre-PAMA weight should be 1")
	}
}

func TestValueAccumulationAndWindow(t *testing.T) {
	c, p := newPAMACache(t, 2, DefaultConfig())
	_ = c
	it := &kv.Item{Class: 0, Sub: 1, Penalty: 0.5}
	p.OnHit(it, 0)
	p.OnHit(it, 1)
	p.OnHit(it, -1) // untracked region: ignored
	p.OnHit(it, 99) // out of range: ignored
	// Eq. 2: V = V0/2 + V1/4 + V2/8 = 0.25 + 0.125.
	if got, want := p.OutgoingValue(0, 1), 0.375; got != want {
		t.Fatalf("OutgoingValue = %v, want %v", got, want)
	}
	p.OnWindow()
	// Previous window still contributes fully.
	if got := p.OutgoingValue(0, 1); got != 0.375 {
		t.Fatalf("post-window OutgoingValue = %v, want 0.375", got)
	}
	p.OnWindow()
	if got := p.OutgoingValue(0, 1); got != 0 {
		t.Fatalf("stale value survived two windows: %v", got)
	}
}

func TestIncomingValueFromGhosts(t *testing.T) {
	_, p := newPAMACache(t, 2, DefaultConfig())
	p.OnMiss(1, 2, 1.0, 0)
	p.OnMiss(1, 2, 1.0, 2)
	p.OnMiss(1, 2, 0, -1) // plain miss: no incoming value
	if got, want := p.IncomingValue(1, 2), 0.5+0.125; got != want {
		t.Fatalf("IncomingValue = %v, want %v", got, want)
	}
}

// fillClass inserts n items of the given size and penalty.
func fillClass(c *cache.Cache, prefix string, n, size int, pen float64) {
	for i := 0; i < n; i++ {
		c.Set(fmt.Sprintf("%s%d", prefix, i), size, pen, 0, nil)
	}
}

func TestForcedMigrationWhenClassEmpty(t *testing.T) {
	c, p := newPAMACache(t, 1, DefaultConfig())
	fillClass(c, "small", 64, 50, 0.05) // class 0 owns the only slab
	// Class 3 needs a slab; PAMA must migrate regardless of values.
	if err := c.Set("big", 512, 0.05, 0, nil); err != nil {
		t.Fatal(err)
	}
	d := p.ReportDecisions()
	if d.Forced != 1 || c.Stats().SlabMigrations != 1 {
		t.Fatalf("decisions = %+v, %d slab migrations, want one forced migration", d, c.Stats().SlabMigrations)
	}
	if c.Slabs(0) != 0 || c.Slabs(3) != 1 {
		t.Fatalf("slabs: class0=%d class3=%d", c.Slabs(0), c.Slabs(3))
	}
}

func TestSameClassReplacesInPlace(t *testing.T) {
	c, p := newPAMACache(t, 1, DefaultConfig())
	fillClass(c, "x", 64, 50, 0.05)
	// Class 0 full, memory exhausted; the only candidate is class 0
	// itself -> in-place replacement, no migration.
	if err := c.Set("one-more", 50, 0.05, 0, nil); err != nil {
		t.Fatal(err)
	}
	d := p.ReportDecisions()
	if d.SameClass != 1 || c.Stats().SlabMigrations != 0 {
		t.Fatalf("decisions = %+v, %d slab migrations, want one SameClass", d, c.Stats().SlabMigrations)
	}
	if c.Items() != 64 {
		t.Fatalf("items = %d, want 64", c.Items())
	}
}

func TestNotWorthItKeepsAllocations(t *testing.T) {
	c, p := newPAMACache(t, 2, DefaultConfig())
	fillClass(c, "hot", 64, 50, 0.05) // class 0, slab 1
	fillClass(c, "big", 8, 400, 0.05) // class 2, slab 2 (8 slots of 256B? 400 -> class 3 slot 512, 8 per slab)
	// Make class 0's candidate expensive: hit its bottom items heavily.
	for r := 0; r < 5; r++ {
		for i := 0; i < 10; i++ {
			c.Get(fmt.Sprintf("hot%d", i), 0, 0, nil)
		}
	}
	// Class 3 is full with zero incoming value (no ghost hits yet): a new
	// class-3 insert should not strip class 0.
	preSlabs0 := c.Slabs(0)
	if err := c.Set("bignew", 400, 0.05, 0, nil); err != nil {
		t.Fatal(err)
	}
	if c.Slabs(0) != preSlabs0 {
		t.Fatal("migration happened despite zero incoming value")
	}
	d := p.ReportDecisions()
	if d.NotWorthIt == 0 && d.SameClass == 0 {
		t.Fatalf("decisions = %+v, expected an in-place path", d)
	}
}

func TestMigrationPrefersCheapDonor(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := newPAMACache(t, 2, cfg)
	// Slab 1: class 0 filled with cheap-penalty items, never re-accessed
	// (worthless candidate). Slab 2: class 1 filled with items that keep
	// getting hit at the stack bottom (valuable candidate).
	fillClass(c, "cold", 64, 50, 0.002) // class 0
	fillClass(c, "warm", 32, 100, 2.0)  // class 1
	for r := 0; r < 20; r++ {
		for i := 0; i < 32; i++ {
			c.Get(fmt.Sprintf("warm%d", i), 0, 0, nil)
		}
	}
	// Class 3 appears and needs a slab: donor must be class 0.
	if err := c.Set("big", 512, 1.0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if c.Slabs(0) != 0 {
		t.Fatalf("class 0 (worthless) kept its slab; slabs: %v %v %v",
			c.Slabs(0), c.Slabs(1), c.Slabs(3))
	}
	if c.Slabs(1) != 1 {
		t.Fatal("class 1 (valuable) was robbed")
	}
	if c.Introspect().SlabMoves[0][3] != 1 {
		t.Fatal("no migration from class 0 to class 3 recorded")
	}
}

func TestPenaltyAwarenessChangesVictim(t *testing.T) {
	// Two donor subclasses with identical request counts but different
	// penalties: PAMA must take from the cheap one, pre-PAMA is
	// indifferent (ties broken by scan order, so it takes the first).
	run := func(aware bool) int {
		cfg := Config{M: 0, PenaltyAware: aware, Bounds: []float64{0.01, 5.0}}
		p := New(cfg)
		c, err := cache.New(cache.Config{
			Geometry:   smallGeom(),
			CacheBytes: 3 * 4096,
			WindowLen:  1 << 30,
		}, p)
		if err != nil {
			t.Fatal(err)
		}
		// Class 0 sub 0: cheap penalties; class 1 sub 1: dear penalties.
		fillClass(c, "cheap", 64, 50, 0.005)
		fillClass(c, "dear", 32, 100, 2.0)
		fillClass(c, "filler", 8, 500, 2.0) // class 3 takes 3rd slab
		// Equal bottom-segment traffic on the cheap and dear candidates,
		// and keep the filler expensive so it is never the obvious donor.
		for r := 0; r < 10; r++ {
			for i := 0; i < 8; i++ {
				c.Get(fmt.Sprintf("cheap%d", i), 0, 0, nil)
				c.Get(fmt.Sprintf("dear%d", i), 0, 0, nil)
				c.Get(fmt.Sprintf("filler%d", i), 0, 0, nil)
			}
		}
		// Force class 2 to need a slab, with high incoming pressure
		// faked by ghost traffic: first create misses with ghosts.
		for i := 0; i < 40; i++ {
			c.Set(fmt.Sprintf("mid%d", i), 200, 2.0, 0, nil)
			c.Get(fmt.Sprintf("mid%d", i), 200, 2.0, nil)
		}
		if c.Slabs(0) == 0 {
			return 0
		}
		if c.Slabs(1) == 0 {
			return 1
		}
		return -1
	}
	if victim := run(true); victim != 0 {
		t.Fatalf("PAMA robbed class %d, want cheap class 0", victim)
	}
}

// TestEveryClassGetsASlab: four classes fill an 8-slab engine, each class's
// items spread over all five penalty subclasses, so no single stack anywhere
// covers a slab. Stores into four more classes must still find a donor — a
// whole class, priced as the sum of its subclasses — instead of being
// refused.
func TestEveryClassGetsASlab(t *testing.T) {
	p := New(DefaultConfig())
	g := kv.DefaultGeometry()
	c, err := cache.New(cache.Config{Geometry: g, CacheBytes: 8 * int64(g.SlabSize), WindowLen: 4096}, p)
	if err != nil {
		t.Fatal(err)
	}
	pens := []float64{0.0005, 0.005, 0.05, 0.5, 2} // one per subclass
	const first = 6                                // classes 6..13: 256 down to 2 slots per slab
	for cl := first; cl < first+4; cl++ {
		for i := 0; i < 2*g.SlotsPerSlab(cl); i++ {
			if err := c.Set(fmt.Sprintf("fill%d-%d", cl, i), g.SlotSize(cl), pens[i%len(pens)], 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.FreeSlabs() != 0 {
		t.Fatalf("fill left %d free slabs", c.FreeSlabs())
	}
	rng := rand.New(rand.NewSource(1))
	stored := map[int]bool{}
	for i := 0; i < 40_000; i++ {
		cl := first + rng.Intn(8)
		stored[cl] = true
		key := fmt.Sprintf("k%d-%d", cl, rng.Intn(2000))
		c.Set(key, g.SlotSize(cl)/2+rng.Intn(g.SlotSize(cl)/2), pens[rng.Intn(len(pens))], 0, nil)
		if i%7 == 0 {
			c.Get(key, 0, 0, nil)
		}
	}
	if n := c.Stats().NoSpace; n != 0 {
		t.Fatalf("%d stores refused", n)
	}
	for cl := range stored {
		if c.Slabs(cl) == 0 {
			t.Errorf("class %d was stored to but owns no slab: %v", cl, c.SnapshotSlabs())
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
