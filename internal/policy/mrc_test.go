package policy

import (
	"fmt"
	"testing"

	"pamakv/internal/cache"
)

func newMRCCache(t *testing.T, slabs int, obj MRCObjective, window uint64) *cache.Cache {
	t.Helper()
	m := NewMRC(obj)
	c, err := cache.New(cache.Config{
		Geometry:   smallGeom(),
		CacheBytes: int64(slabs) * 4096,
		WindowLen:  window,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMRCShapes(t *testing.T) {
	m := NewMRC(ObjectiveMissRatio)
	if m.Name() != "mrc-hit" || m.Segments() != 1 || m.GhostSegments() != 1 || m.SubclassBounds() != nil {
		t.Fatalf("mrc shape wrong: %s %d %d", m.Name(), m.Segments(), m.GhostSegments())
	}
	if NewMRC(ObjectiveAvgTime).Name() != "mrc-time" {
		t.Fatal("time objective name")
	}
}

func TestMRCMovesTowardGain(t *testing.T) {
	c := newMRCCache(t, 3, ObjectiveMissRatio, 400)
	// Class 0: two slabs of items never touched again (no marginal loss).
	fill(c, "cold", 128, 50)
	// Class 1: one slab, under constant pressure with rereferenced
	// overflow -> ghost receiving-segment hits (marginal gain).
	fill(c, "hot", 32, 100)
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("hot%d", i%48) // working set 1.5x the class's space
		if _, _, hit := c.Get(k, 100, 0.1, nil); !hit {
			c.Set(k, 100, 0.1, 0, nil)
		}
	}
	if c.Stats().SlabMigrations == 0 {
		t.Fatal("MRC never reallocated")
	}
	if c.Slabs(1) < 2 {
		t.Fatalf("pressured class did not gain slabs: %v", c.SnapshotSlabs())
	}
	if c.Slabs(0) != 1 {
		t.Fatalf("idle class should be drained to one slab, has %d", c.Slabs(0))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMRCQuietDuringGrowth(t *testing.T) {
	c := newMRCCache(t, 8, ObjectiveMissRatio, 100)
	fill(c, "a", 64, 50)
	for i := 0; i < 500; i++ {
		c.Get(fmt.Sprintf("a%d", i%64), 0, 0, nil)
	}
	if c.Stats().SlabMigrations != 0 {
		t.Fatal("MRC moved slabs while free slabs remained")
	}
}

func TestMRCDonorsKeepOneSlab(t *testing.T) {
	c := newMRCCache(t, 2, ObjectiveMissRatio, 200)
	fill(c, "cold", 64, 50) // class 0, one slab
	fill(c, "hot", 32, 100) // class 1, one slab
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("hot%d", i%64)
		if _, _, hit := c.Get(k, 100, 0.1, nil); !hit {
			c.Set(k, 100, 0.1, 0, nil)
		}
	}
	if c.Stats().SlabMigrations != 0 {
		t.Fatal("MRC robbed a single-slab donor")
	}
	if c.Slabs(0) != 1 {
		t.Fatal("class 0 lost its only slab")
	}
}

func TestMRCTimeObjectiveWeighsPenalty(t *testing.T) {
	// Two classes with identical marginal hit counts; the time objective
	// must prefer granting the slab to the class with expensive misses.
	run := func(obj MRCObjective) []int {
		c := newMRCCache(&testing.T{}, 4, obj, 500)
		fill(c, "idle", 128, 50) // class 0: 2 slabs, zero traffic (donor)
		// Class 1 (cheap) and class 2 (dear) both under pressure.
		for i := 0; i < 32; i++ {
			c.Set(fmt.Sprintf("cheap%d", i), 100, 0.001, 0, nil)
		}
		for i := 0; i < 16; i++ {
			c.Set(fmt.Sprintf("dear%d", i), 200, 4.0, 0, nil)
		}
		for i := 0; i < 6000; i++ {
			kc := fmt.Sprintf("cheap%d", i%48)
			if _, _, hit := c.Get(kc, 100, 0.001, nil); !hit {
				c.Set(kc, 100, 0.001, 0, nil)
			}
			kd := fmt.Sprintf("dear%d", i%24)
			if _, _, hit := c.Get(kd, 200, 4.0, nil); !hit {
				c.Set(kd, 200, 4.0, 0, nil)
			}
		}
		return c.SnapshotSlabs()
	}
	timeAlloc := run(ObjectiveAvgTime)
	if timeAlloc[2] < 2 {
		t.Fatalf("time objective did not feed the expensive class: %v", timeAlloc)
	}
}
