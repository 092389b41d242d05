package sim

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
	"pamakv/internal/tenant"
	"pamakv/internal/workload"
)

// This file is the multi-tenant simulator: one cache budget split across N
// tenants, each tenant driving its own engine with its own workload, with
// the tenant arbiter rebalancing the slab budget between them. The tenants
// figure (pama-bench -fig tenants) uses it to prove the ROADMAP claim: one
// arbitrated cache matches the combined hit rate of N static partitions
// with 20% less total memory on a skewed tenant mix.

// TenantSpec is one tenant's slice of a multi-tenant experiment.
type TenantSpec struct {
	// Tenant is the contract (name, reserve, weight, SLO class).
	Tenant tenant.Config
	// Workload generates this tenant's request stream.
	Workload workload.Config
	// Share is the tenant's fraction of the combined request stream;
	// shares are normalized over the spec.
	Share float64
}

// MultiSpec describes one multi-tenant experiment.
type MultiSpec struct {
	// Name labels the run.
	Name string
	// Tenants are the co-located applications.
	Tenants []TenantSpec
	// CacheBytes is the combined memory budget; each tenant starts with
	// its reserve plus a weight-proportional share of the remainder.
	CacheBytes int64
	// Requests is the combined stream length.
	Requests uint64
	// ArbitrateEvery runs one synchronous arbiter step every this many
	// requests; 0 disables arbitration (static partitions).
	ArbitrateEvery uint64
	// Seed drives the tenant-interleaving draw.
	Seed uint64
}

// nodeEngineWindow is the value window, in accesses, of every engine the
// multi-tenant and churn simulations build: one per tenant, one per node.
// Those engines all run PAMA at the paper's defaults.
const nodeEngineWindow = 50_000

// TenantResult is one tenant's outcome.
type TenantResult struct {
	Name        string
	Gets, Hits  uint64
	MissPenalty float64
	Items       int
	// SlabsStart and SlabsEnd are the tenant's budget before and after
	// arbitration; SlabsIn/SlabsOut the arbiter transfers.
	SlabsStart, SlabsEnd int
	SlabsIn, SlabsOut    uint64
}

// MultiResult is a multi-tenant run's outcome.
type MultiResult struct {
	Spec        MultiSpec
	Tenants     []TenantResult
	Gets, Hits  uint64
	CombinedHit float64
	MissPenalty float64
	// Moves counts arbiter slab transfers; Matrix[d][r] attributes them.
	Moves  uint64
	Matrix [][]uint64
	// TotalSlabs is the combined budget, verified conserved across
	// arbitration.
	TotalSlabs int
}

// HitRatio returns t's GET hit ratio.
func (t TenantResult) HitRatio() float64 {
	if t.Gets == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Gets)
}

// RunMulti executes one multi-tenant experiment: per-tenant engines sized
// reserve + weight-share of the remainder, a deterministic interleave of
// the tenants' streams, and (when enabled) a synchronous arbiter step every
// ArbitrateEvery requests — the simulator's stand-in for the server's
// periodic arbitration goroutine.
func RunMulti(spec MultiSpec) (*MultiResult, error) {
	if len(spec.Tenants) == 0 {
		return nil, fmt.Errorf("sim: multi-tenant spec has no tenants")
	}
	if spec.Requests == 0 {
		spec.Requests = 1_000_000
	}

	// Split the budget: reserves off the top, remainder by weight.
	geomt := kv.DefaultGeometry()
	slabSize := int64(geomt.SlabSize)
	var reserved int64
	var weights float64
	var shares float64
	for _, t := range spec.Tenants {
		reserved += t.Tenant.ReservedBytes
		w := t.Tenant.Weight
		if w <= 0 {
			w = 1
		}
		weights += w
		shares += t.Share
	}
	if shares <= 0 {
		return nil, fmt.Errorf("sim: tenant shares sum to %g", shares)
	}
	remainder := spec.CacheBytes - reserved
	if remainder < 0 {
		return nil, fmt.Errorf("sim: reserves %d exceed cache %d", reserved, spec.CacheBytes)
	}

	type member struct {
		eng   *cache.Cache
		gen   *workload.Generator
		model penalty.Model
		cum   float64 // cumulative normalized share
		res   TenantResult
	}
	members := make([]*member, len(spec.Tenants))
	arbMembers := make([]tenant.Member, len(spec.Tenants))
	var cum float64
	totalSlabs := 0
	for i, t := range spec.Tenants {
		w := t.Tenant.Weight
		if w <= 0 {
			w = 1
		}
		bytes := t.Tenant.ReservedBytes + int64(float64(remainder)*w/weights)
		if bytes < slabSize {
			bytes = slabSize
		}
		eng, err := cache.New(cache.Config{
			Geometry:   geomt,
			CacheBytes: bytes,
			WindowLen:  nodeEngineWindow,
			Tenant:     int32(i),
		}, core.New(core.DefaultConfig()))
		if err != nil {
			return nil, fmt.Errorf("sim: tenant %s: %w", t.Tenant.Name, err)
		}
		gen, err := workload.New(t.Workload)
		if err != nil {
			return nil, fmt.Errorf("sim: tenant %s: %w", t.Tenant.Name, err)
		}
		cum += t.Share / shares
		members[i] = &member{
			eng:   eng,
			gen:   gen,
			model: t.Workload.Penalty,
			cum:   cum,
			res:   TenantResult{Name: t.Tenant.Name, SlabsStart: eng.TotalSlabsBudget()},
		}
		totalSlabs += eng.TotalSlabsBudget()
		arbMembers[i] = tenant.Member{ID: i, Cfg: t.Tenant, Engines: []*cache.Cache{eng}}
	}

	var arb *tenant.Arbiter
	if spec.ArbitrateEvery > 0 && len(members) >= 2 {
		var err error
		arb, err = tenant.NewArbiter(arbMembers)
		if err != nil {
			return nil, err
		}
	}

	res := &MultiResult{Spec: spec, TotalSlabs: totalSlabs}
	for step := uint64(0); step < spec.Requests; step++ {
		// Deterministic tenant draw by cumulative share.
		u := float64(kv.Mix64(spec.Seed^(step*0x9e3779b97f4a7c15+1))) / float64(1<<63) / 2
		m := members[len(members)-1]
		for _, cand := range members {
			if u < cand.cum {
				m = cand
				break
			}
		}
		r, err := m.gen.Next()
		if err != nil {
			return nil, err
		}
		rc := record(r, m.model)
		get, hit, err := serve(m.eng, &rc)
		if err != nil {
			return nil, err
		}
		if get {
			m.res.Gets++
			if hit {
				m.res.Hits++
			} else {
				m.res.MissPenalty += rc.pen
			}
		}
		if arb != nil && spec.ArbitrateEvery > 0 && (step+1)%spec.ArbitrateEvery == 0 {
			arb.Step()
		}
	}

	endSlabs := 0
	for i, m := range members {
		if err := m.eng.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("sim: tenant %s: %w", m.res.Name, err)
		}
		st := m.eng.Stats()
		m.res.Items = m.eng.Items()
		m.res.SlabsEnd = m.eng.TotalSlabsBudget()
		m.res.SlabsIn = st.SlabReceipts
		m.res.SlabsOut = st.SlabDonations
		endSlabs += m.res.SlabsEnd
		res.Tenants = append(res.Tenants, m.res)
		res.Gets += m.res.Gets
		res.Hits += m.res.Hits
		res.MissPenalty += m.res.MissPenalty
		if arb != nil {
			floor := arb.ReserveSlabs(i)
			if m.res.SlabsEnd < floor {
				return nil, fmt.Errorf("sim: tenant %s ended below reserve: %d < %d slabs",
					m.res.Name, m.res.SlabsEnd, floor)
			}
		}
	}
	if endSlabs != totalSlabs {
		return nil, fmt.Errorf("sim: slab budget not conserved: started %d, ended %d", totalSlabs, endSlabs)
	}
	if res.Gets > 0 {
		res.CombinedHit = float64(res.Hits) / float64(res.Gets)
	}
	if arb != nil {
		st := arb.Stats()
		res.Moves = st.Moves
		res.Matrix = st.Matrix
	}
	return res, nil
}

// TenantsFigureResult is the tenants figure: every tenant running alone in
// a static partition of the full budget, against all tenants sharing one
// arbitrated cache at 80% of that budget.
type TenantsFigureResult struct {
	// Partitions holds one single-tenant run per tenant, each in an
	// equal static partition (the siloed-memcached-pools baseline),
	// named after its tenant.
	Partitions []*Result
	// Arbitrated is the combined run at ArbitratedFrac of the budget.
	Arbitrated *MultiResult
	// PartitionBytes is the per-tenant partition size; TotalBytes the
	// baseline total; ArbitratedBytes the arbitrated cache's budget.
	PartitionBytes  int64
	TotalBytes      int64
	ArbitratedBytes int64
	// PartitionHit is the partitions' gets-weighted combined hit ratio.
	PartitionHit float64
}

// ArbitratedFrac is the arbitrated cache's budget relative to the
// partitioned baseline: the ROADMAP's "≥20% less total memory" claim.
const ArbitratedFrac = 0.8

// TenantsMix returns the figure's skewed tenant mix: a hot, penalty-heavy
// tenant whose working set overflows an equal partition; a small tenant
// that fits anywhere; and a cold scan tenant that no amount of memory
// helps. Equal partitions mis-provision all three — exactly the silo waste
// Memshare targets.
func TenantsMix() []TenantSpec {
	hot := workload.ETC()
	hot.Name = "hot"
	hot.Keys = 300_000
	hot.Seed = 11

	warm := workload.SYS()
	warm.Name = "warm"
	warm.Seed = 12

	cold := workload.ETC()
	cold.Name = "cold"
	cold.Keys = 2_000_000
	cold.ZipfS = 0.6
	cold.ColdFrac = 0.5
	cold.RotateEvery = 0
	cold.Seed = 13

	// Weights mirror the SLO ordering. They matter on long runs: the cold
	// scan's half-cold key stream keeps generating would-have-hit candidate
	// signal that it can never convert into retained hits, so with equal
	// weights the arbiter slowly drains the hot tenant into the scan.
	// Down-weighting the scan tenant is exactly the operator knob for that.
	return []TenantSpec{
		{Tenant: tenant.Config{Name: "hot", ReservedBytes: 4 << 20, Weight: 4, SLOClass: 0}, Workload: hot, Share: 0.6},
		{Tenant: tenant.Config{Name: "warm", ReservedBytes: 4 << 20, Weight: 2, SLOClass: 1}, Workload: warm, Share: 0.3},
		{Tenant: tenant.Config{Name: "cold", ReservedBytes: 4 << 20, Weight: 1, SLOClass: 2}, Workload: cold, Share: 0.1},
	}
}

// figureTenants is the tenants figure. It has no Specs: its Render runs
// RunTenantsFigure, whose arbitrated run is not a single-engine replay.
func figureTenants(scale float64) (*Figure, error) {
	f := &Figure{ID: "tenants", Title: "penalty-aware arbitration vs static partitions"}
	f.Render = func(w io.Writer, _ []*Result) error {
		r, err := RunTenantsFigure(scale, f.Workers)
		if err != nil {
			return err
		}
		return RenderTenants(w, r)
	}
	return f, nil
}

// RunTenantsFigure executes the tenants figure at the given request scale:
// the N single-tenant partitions, replayed by RunMatrix as ordinary Specs,
// next to the one arbitrated RunMulti, at most workers runs at once (0 means
// GOMAXPROCS). One worker runs them one after another.
func RunTenantsFigure(scale float64, workers int) (*TenantsFigureResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mix := TenantsMix()
	reqs := scaled(4_000_000, scale)
	total := int64(96) << 20
	partBytes := total / int64(len(mix))
	arbBytes := int64(float64(total) * ArbitratedFrac)

	out := &TenantsFigureResult{
		PartitionBytes:  partBytes,
		TotalBytes:      total,
		ArbitratedBytes: arbBytes,
	}

	var shares float64
	for _, t := range mix {
		shares += t.Share
	}
	parts := make([]Spec, len(mix))
	for i, t := range mix {
		parts[i] = Spec{
			Name:           t.Tenant.Name,
			Workload:       t.Workload,
			CacheBytes:     partBytes,
			Requests:       uint64(float64(reqs) * t.Share / shares),
			EngineWindow:   nodeEngineWindow,
			Policy:         PolicySpec{Kind: "pama"},
			SampleSubClass: -1,
		}
	}
	var arbErr error
	arbitrate := func() {
		out.Arbitrated, arbErr = RunMulti(MultiSpec{
			Name:           "arbitrated",
			Tenants:        mix,
			CacheBytes:     arbBytes,
			Requests:       reqs,
			ArbitrateEvery: 10_000,
			Seed:           42,
		})
	}
	var err error
	if workers == 1 {
		arbitrate()
		out.Partitions, err = RunMatrix(parts, 1)
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			arbitrate()
		}()
		out.Partitions, err = RunMatrix(parts, workers-1) // the arbitrated run holds one worker
		<-done
	}
	if err = errors.Join(err, arbErr); err != nil {
		return nil, err
	}

	var gets, hits uint64
	for _, p := range out.Partitions {
		gets += p.Stats.Gets
		hits += p.Stats.Hits
	}
	if gets > 0 {
		out.PartitionHit = float64(hits) / float64(gets)
	}
	return out, nil
}

// RenderTenants writes the tenants figure as TSV: one row per (tenant,
// mode), then the combined comparison and the arbiter's move matrix.
func RenderTenants(w io.Writer, r *TenantsFigureResult) error {
	if _, err := fmt.Fprintln(w, "tenant\tmode\tcache_mib\tgets\thit_ratio\tmiss_penalty_s\titems\tslabs_start\tslabs_end\tslabs_in\tslabs_out"); err != nil {
		return err
	}
	row := func(t TenantResult, mode string, mib float64) error {
		_, err := fmt.Fprintf(w, "%s\t%s\t%.1f\t%d\t%.4f\t%.1f\t%d\t%d\t%d\t%d\t%d\n",
			t.Name, mode, mib, t.Gets, t.HitRatio(), t.MissPenalty, t.Items,
			t.SlabsStart, t.SlabsEnd, t.SlabsIn, t.SlabsOut)
		return err
	}
	// A partition's budget never moves: it starts and ends at its bytes.
	slabs := int(r.PartitionBytes / int64(kv.DefaultGeometry().SlabSize))
	for _, p := range r.Partitions {
		t := TenantResult{Name: p.Spec.Name, Gets: p.Stats.Gets, Hits: p.Stats.Hits,
			MissPenalty: p.MissPenalty, Items: p.Items, SlabsStart: slabs, SlabsEnd: slabs}
		if err := row(t, "partitioned", float64(r.PartitionBytes)/(1<<20)); err != nil {
			return err
		}
	}
	for _, t := range r.Arbitrated.Tenants {
		if err := row(t, "arbitrated", float64(r.ArbitratedBytes)/(1<<20)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# combined: partitioned %.4f @ %d MiB vs arbitrated %.4f @ %d MiB (%.0f%% of the memory), %d slab moves\n",
		r.PartitionHit, r.TotalBytes>>20, r.Arbitrated.CombinedHit, r.ArbitratedBytes>>20,
		ArbitratedFrac*100, r.Arbitrated.Moves); err != nil {
		return err
	}
	if len(r.Arbitrated.Matrix) > 0 {
		if _, err := fmt.Fprintf(w, "# move matrix (donor -> receiver):\n"); err != nil {
			return err
		}
		for d, rowm := range r.Arbitrated.Matrix {
			if _, err := fmt.Fprintf(w, "#   %s -> %v\n", r.Arbitrated.Tenants[d].Name, rowm); err != nil {
				return err
			}
		}
	}
	return nil
}
