package policy

import (
	"fmt"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
)

func smallGeom() kv.Geometry { return kv.Geometry{SlabSize: 4096, Base: 64, NumClasses: 4} }

func newCache(t *testing.T, slabs int, pol cache.Policy, window uint64) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{
		Geometry:   smallGeom(),
		CacheBytes: int64(slabs) * 4096,
		WindowLen:  window,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fill(c *cache.Cache, prefix string, n, size int) {
	for i := 0; i < n; i++ {
		c.Set(fmt.Sprintf("%s%d", prefix, i), size, 0.1, 0, nil)
	}
}

func TestBaselineShapes(t *testing.T) {
	for _, pol := range []cache.Policy{NewStatic(), NewPSA(10)} {
		if pol.SubclassBounds() != nil || pol.Segments() != 0 || pol.GhostSegments() != 0 {
			t.Fatalf("%s: baselines must run bare stacks", pol.Name())
		}
	}
}

func TestStaticNeverReallocates(t *testing.T) {
	c := newCache(t, 2, NewStatic(), 1<<30)
	fill(c, "a", 64, 50)  // class 0, slab 1
	fill(c, "b", 32, 100) // class 1, slab 2
	// Press hard on class 0: static policy must only evict within class.
	fill(c, "more", 200, 50)
	if c.Slabs(0) != 1 || c.Slabs(1) != 1 {
		t.Fatalf("static moved slabs: %d/%d", c.Slabs(0), c.Slabs(1))
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no within-class evictions under pressure")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticFailsWhenClassEmpty(t *testing.T) {
	c := newCache(t, 1, NewStatic(), 1<<30)
	fill(c, "a", 64, 50)
	if err := c.Set("big", 512, 0.1, 0, nil); err == nil {
		t.Fatal("static policy should fail SET for slabless class when memory is exhausted")
	}
}

func TestPSARelocatesTowardMissingClass(t *testing.T) {
	psa := NewPSA(5)
	c := newCache(t, 3, psa, 1000)
	fill(c, "cold", 128, 50) // class 0, two slabs: never accessed again (low density)
	fill(c, "hot", 32, 100)  // class 1
	// Generate class-1 misses (sizeHint 100 -> class 1) and keep class 1
	// requests high.
	for i := 0; i < 200; i++ {
		c.Get(fmt.Sprintf("hot%d", i%32), 0, 0, nil)
		c.Get(fmt.Sprintf("missing%d", i), 100, 0.1, nil)
	}
	if c.Stats().SlabMigrations == 0 {
		t.Fatal("PSA never relocated")
	}
	if c.Slabs(1) <= 1 {
		t.Fatalf("class 1 did not gain slabs: %d", c.Slabs(1))
	}
	if c.Slabs(0) != 1 {
		t.Fatalf("low-density class 0 should be drained to its final slab, has %d", c.Slabs(0))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPSAQuietDuringGrowth(t *testing.T) {
	psa := NewPSA(2)
	c := newCache(t, 8, psa, 1000)
	fill(c, "a", 10, 50)
	for i := 0; i < 50; i++ {
		c.Get(fmt.Sprintf("nope%d", i), 100, 0.1, nil)
	}
	if c.Stats().SlabMigrations != 0 {
		t.Fatal("PSA relocated while free slabs remained")
	}
}

func TestPSADefaultPeriod(t *testing.T) {
	if NewPSA(0).M != 1000 {
		t.Fatal("zero period should default")
	}
}

func TestNames(t *testing.T) {
	want := map[string]cache.Policy{
		"memcached": NewStatic(),
		"psa":       NewPSA(1),
	}
	for name, pol := range want {
		if pol.Name() != name {
			t.Errorf("Name() = %q, want %q", pol.Name(), name)
		}
	}
}
