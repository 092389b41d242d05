package sim

import (
	"strings"
	"testing"

	"pamakv/internal/workload"
)

// TestTenantArbitrationGate is the CI tenant-fairness gate: one arbitrated
// cache must match the combined hit rate of per-tenant static partitions
// with 20% less total memory on the skewed tenant mix, and the win must
// come from observable slab moves. Everything is deterministic (fixed
// seeds, synchronous arbiter steps), so the gate is exact, not
// statistical.
func TestTenantArbitrationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tenant gate runs millions of requests")
	}
	r, err := RunTenantsFigure(0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("partitioned %.4f @ %d MiB vs arbitrated %.4f @ %d MiB, %d moves",
		r.PartitionHit, r.TotalBytes>>20, r.Arbitrated.CombinedHit, r.ArbitratedBytes>>20, r.Arbitrated.Moves)
	for _, tr := range r.Arbitrated.Tenants {
		t.Logf("  %s: hit %.4f slabs %d->%d (in %d, out %d)",
			tr.Name, tr.HitRatio(), tr.SlabsStart, tr.SlabsEnd, tr.SlabsIn, tr.SlabsOut)
	}
	if got := float64(r.ArbitratedBytes) / float64(r.TotalBytes); got > ArbitratedFrac+1e-9 {
		t.Fatalf("arbitrated cache uses %.0f%% of the partitioned memory, want <= %.0f%%", got*100, ArbitratedFrac*100)
	}
	if r.Arbitrated.CombinedHit < r.PartitionHit {
		t.Fatalf("arbitrated hit %.4f below partitioned %.4f despite equal-or-less memory",
			r.Arbitrated.CombinedHit, r.PartitionHit)
	}
	if r.Arbitrated.Moves == 0 {
		t.Fatal("arbiter never moved a slab; the comparison proves nothing")
	}
	// The design intent, not just the aggregate: the overflowing hot
	// tenant must end with more memory than its even split, funded by the
	// tenants that cannot use theirs.
	hot := r.Arbitrated.Tenants[0]
	if hot.SlabsEnd <= hot.SlabsStart {
		t.Errorf("hot tenant ended with %d slabs, started with %d — arbitration flowed the wrong way",
			hot.SlabsEnd, hot.SlabsStart)
	}
	var sb strings.Builder
	if err := RenderTenants(&sb, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hit_ratio", "arbitrated", "partitioned", "# combined:", "# move matrix"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("RenderTenants output missing %q:\n%s", want, sb.String())
		}
	}
}

// TestRunMultiStatic pins the no-arbiter path: budgets never move and the
// slab count is conserved trivially.
func TestRunMultiStatic(t *testing.T) {
	mix := TenantsMix()
	r, err := RunMulti(MultiSpec{
		Name:       "static",
		Tenants:    mix,
		CacheBytes: 48 << 20,
		Requests:   200_000,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Moves != 0 {
		t.Fatalf("static run reported %d moves", r.Moves)
	}
	for _, tr := range r.Tenants {
		if tr.SlabsStart != tr.SlabsEnd {
			t.Fatalf("tenant %s budget moved without an arbiter: %d -> %d", tr.Name, tr.SlabsStart, tr.SlabsEnd)
		}
		if tr.SlabsIn != 0 || tr.SlabsOut != 0 {
			t.Fatalf("tenant %s has transfers without an arbiter", tr.Name)
		}
	}
}

// TestRunMultiReserveRespected runs a mix whose reserves nearly cover the
// cache and checks the runner's own floor assertion holds (RunMulti fails
// the run if any tenant ends below its reserve).
func TestRunMultiReserveRespected(t *testing.T) {
	small := workload.SYS()
	small.Seed = 21
	big := workload.ETC()
	big.Keys = 200_000
	big.Seed = 22
	spec := MultiSpec{
		Name: "reserve",
		Tenants: []TenantSpec{
			{Tenant: TenantsMix()[0].Tenant, Workload: big, Share: 0.9},
			{Tenant: TenantsMix()[1].Tenant, Workload: small, Share: 0.1},
		},
		CacheBytes:     16 << 20,
		Requests:       300_000,
		ArbitrateEvery: 2_000,
		Seed:           9,
	}
	spec.Tenants[0].Tenant.ReservedBytes = 4 << 20
	spec.Tenants[1].Tenant.ReservedBytes = 4 << 20
	r, err := RunMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	// RunMulti already failed the run if a reserve was breached; assert
	// the pressure actually moved slabs so the floor was exercised.
	if r.Moves == 0 {
		t.Fatal("no slab pressure generated; reserve floor untested")
	}
}
