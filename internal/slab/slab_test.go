package slab

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pamakv/internal/kv"
)

func testGeom() kv.Geometry {
	return kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8}
}

func mustManager(t *testing.T, slabs int) *Manager {
	t.Helper()
	g := testGeom()
	m, err := NewManager(g, int64(slabs)*int64(g.SlabSize))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerRejects(t *testing.T) {
	if _, err := NewManager(testGeom(), 100); err == nil {
		t.Fatal("sub-slab cache size accepted")
	}
	bad := kv.Geometry{SlabSize: 0, Base: 64, NumClasses: 4}
	if _, err := NewManager(bad, 1<<20); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// TestNewManagerBoundaryCapacities pins the rounding rule at every edge:
// cacheBytes strictly below one slab is a descriptive error, and partial
// slabs always round down.
func TestNewManagerBoundaryCapacities(t *testing.T) {
	g := testGeom() // SlabSize = 64 KiB
	ss := int64(g.SlabSize)
	cases := []struct {
		name       string
		cacheBytes int64
		wantSlabs  int
		wantErr    bool
	}{
		{"zero bytes", 0, 0, true},
		{"negative bytes", -1, 0, true},
		{"one byte short of a slab", ss - 1, 0, true},
		{"exactly one slab", ss, 1, false},
		{"one byte over a slab", ss + 1, 1, false},
		{"just under two slabs", 2*ss - 1, 1, false},
		{"exactly two slabs", 2 * ss, 2, false},
		{"large uneven", 1000*ss + ss/2, 1000, false},
	}
	for _, c := range cases {
		m, err := NewManager(g, c.cacheBytes)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: NewManager(%d bytes) accepted", c.name, c.cacheBytes)
			} else if !strings.Contains(err.Error(), "raise the cache size") {
				t.Errorf("%s: error not descriptive: %v", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if m.TotalSlabs() != c.wantSlabs {
			t.Errorf("%s: got %d slabs, want %d", c.name, m.TotalSlabs(), c.wantSlabs)
		}
	}
}

func TestBudgetTransfer(t *testing.T) {
	donor := mustManager(t, 4)
	recv := mustManager(t, 1)
	if err := recv.ShrinkBudget(1); err != nil {
		t.Fatal(err)
	}
	if recv.TotalSlabs() != 0 || recv.FreeSlabs() != 0 {
		t.Fatalf("emptied manager: total=%d free=%d", recv.TotalSlabs(), recv.FreeSlabs())
	}
	if err := recv.AllocSlab(0); err == nil {
		t.Fatal("empty manager allocated a slab")
	}
	// Hand over slabs one at a time; the combined budget stays 4.
	for i := 0; i < 4; i++ {
		if err := donor.ShrinkBudget(1); err != nil {
			t.Fatal(err)
		}
		if err := recv.GrowBudget(1); err != nil {
			t.Fatal(err)
		}
		if got := donor.TotalSlabs() + recv.TotalSlabs(); got != 4 {
			t.Fatalf("combined budget %d after transfer %d", got, i+1)
		}
		if err := donor.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := recv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Donor is exhausted; occupied slabs cannot leave.
	if err := donor.ShrinkBudget(1); err == nil {
		t.Fatal("shrank an empty budget")
	}
	if err := recv.AllocSlab(2); err != nil {
		t.Fatal(err)
	}
	if err := recv.ShrinkBudget(4); err == nil {
		t.Fatal("shrank past free slabs (one is owned by class 2)")
	}
	if err := recv.ShrinkBudget(-1); err == nil {
		t.Fatal("negative shrink accepted")
	}
	if err := recv.GrowBudget(-1); err == nil {
		t.Fatal("negative growth accepted")
	}
}

func TestAllocRelease(t *testing.T) {
	m := mustManager(t, 4)
	if m.FreeSlabs() != 4 || m.TotalSlabs() != 4 {
		t.Fatalf("fresh manager: free=%d total=%d", m.FreeSlabs(), m.TotalSlabs())
	}
	for i := 0; i < 4; i++ {
		if err := m.AllocSlab(2); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AllocSlab(2); err == nil {
		t.Fatal("allocation beyond budget accepted")
	}
	if m.Slabs(2) != 4 || m.FreeSlabs() != 0 {
		t.Fatalf("slabs=%d free=%d", m.Slabs(2), m.FreeSlabs())
	}
	if err := m.ReleaseSlab(2); err != nil {
		t.Fatal(err)
	}
	if m.FreeSlabs() != 1 {
		t.Fatal("release did not refill free pool")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseRequiresFreeCapacity(t *testing.T) {
	m := mustManager(t, 2)
	if err := m.AllocSlab(0); err != nil {
		t.Fatal(err)
	}
	spc := m.Geometry().SlotsPerSlab(0)
	for i := 0; i < spc; i++ {
		if err := m.UseSlot(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ReleaseSlab(0); err == nil {
		t.Fatal("released a slab whose slots are occupied")
	}
	if err := m.FreeSlot(0); err != nil {
		t.Fatal(err)
	}
	// Still cannot release: used (spc-1) > (slabs-1)*spc = 0.
	if err := m.ReleaseSlab(0); err == nil {
		t.Fatal("released with residents beyond remaining capacity")
	}
}

func TestReleaseEmptyClass(t *testing.T) {
	m := mustManager(t, 2)
	if err := m.ReleaseSlab(3); err == nil {
		t.Fatal("released from class owning no slabs")
	}
}

func TestUseSlotNeedsCapacity(t *testing.T) {
	m := mustManager(t, 2)
	if err := m.UseSlot(1); err == nil {
		t.Fatal("UseSlot on slabless class accepted")
	}
	if err := m.FreeSlot(1); err == nil {
		t.Fatal("FreeSlot on empty class accepted")
	}
}

func TestMoveSlab(t *testing.T) {
	m := mustManager(t, 3)
	if err := m.AllocSlab(1); err != nil {
		t.Fatal(err)
	}
	if err := m.MoveSlab(1, 5); err != nil {
		t.Fatal(err)
	}
	if m.Slabs(1) != 0 || m.Slabs(5) != 1 || m.Migrations != 1 {
		t.Fatalf("after move: slabs(1)=%d slabs(5)=%d migrations=%d",
			m.Slabs(1), m.Slabs(5), m.Migrations)
	}
	if err := m.MoveSlab(5, 5); err == nil {
		t.Fatal("self-move accepted")
	}
	if err := m.MoveSlab(1, 5); err == nil {
		t.Fatal("move from empty donor accepted")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	m := mustManager(t, 4)
	m.AllocSlab(0)
	m.AllocSlab(0)
	m.AllocSlab(7)
	snap := m.Snapshot()
	if snap[0] != 2 || snap[7] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	snap[0] = 99 // must be a copy
	if m.Slabs(0) != 2 {
		t.Fatal("Snapshot aliases internal state")
	}
}

// TestConservationUnderRandomOps drives random legal operations and checks
// the slab-conservation invariant continuously.
func TestConservationUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := mustManager(&testing.T{}, 16)
		nc := m.Geometry().NumClasses
		for op := 0; op < 2000; op++ {
			c := rng.Intn(nc)
			switch rng.Intn(5) {
			case 0:
				_ = m.AllocSlab(c)
			case 1:
				_ = m.ReleaseSlab(c)
			case 2:
				_ = m.UseSlot(c)
			case 3:
				_ = m.FreeSlot(c)
			case 4:
				_ = m.MoveSlab(c, rng.Intn(nc))
			}
			if m.CheckInvariants() != nil {
				return false
			}
			free := 0
			for cc := 0; cc < nc; cc++ {
				free += m.FreeSlots(cc)
				if m.Used(cc) > m.Capacity(cc) {
					return false
				}
			}
			_ = free
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
