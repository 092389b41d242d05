package sim

import (
	"slices"
	"strings"
	"testing"

	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
	"pamakv/internal/workload"
)

// tinyWorkload is a fast ETC-like workload for unit tests.
func tinyWorkload() workload.Config {
	cfg := workload.ETC()
	cfg.Keys = 1 << 14
	cfg.ClassWeights = cfg.ClassWeights[:8]
	return cfg
}

func tinySpec(kind string) Spec {
	return Spec{
		Workload:       tinyWorkload(),
		CacheBytes:     8 << 20, // 8 slabs
		Requests:       60_000,
		MetricsWindow:  10_000,
		EngineWindow:   5_000,
		Policy:         PolicySpec{Kind: kind},
		SampleSubClass: -1,
	}
}

func TestPolicySpecBuild(t *testing.T) {
	if _, err := (PolicySpec{}).Build(); err != nil {
		t.Errorf("Build of the empty kind: %v", err)
	}
	for _, k := range Roster {
		pol, err := (PolicySpec{Kind: k}).Build()
		switch {
		case err != nil:
			t.Errorf("Build(%q): %v", k, err)
		case k == "gdsf":
			if pol != nil {
				t.Errorf("Build(gdsf) = %s, want no slab policy", pol.Name())
			}
		case pol == nil || pol.Name() != k:
			t.Errorf("Build(%q) = %v, want the policy named %q", k, pol, k)
		}
	}
	if slices.Contains(SlabKinds(), "gdsf") || len(SlabKinds()) != len(Roster)-1 {
		t.Errorf("SlabKinds() = %v, want the roster without gdsf", SlabKinds())
	}
	if _, err := (PolicySpec{Kind: "bogus"}).Build(); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestPolicySpecBuildPAMAVariants(t *testing.T) {
	p, _ := (PolicySpec{Kind: "pama"}).Build()
	if p.(*core.PAMA).Segments() != 3 {
		t.Fatal("default pama should have m=2 (3 segments)")
	}
	p, _ = (PolicySpec{Kind: "pama", PAMA: core.Config{M: 0, PenaltyAware: true}}).Build()
	if p.(*core.PAMA).Segments() != 1 {
		t.Fatal("explicit M=0 should give 1 segment")
	}
	p, _ = (PolicySpec{Kind: "pre-pama"}).Build()
	if p.(*core.PAMA).Name() != "pre-pama" || p.SubclassBounds() != nil {
		t.Fatal("pre-pama misconfigured")
	}
}

func TestRunGDSFEngine(t *testing.T) {
	spec := tinySpec("gdsf")
	// GDSF packs payload bytes with no slab fragmentation; shrink the
	// cache so eviction pressure actually materializes.
	spec.CacheBytes = 2 << 20
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series.MeanHitRatio() <= 0 {
		t.Fatal("gdsf produced no hits")
	}
	if res.Decisions != nil || res.EvictsBySub != nil {
		t.Fatal("gdsf must not report PAMA decisions or slab-engine evictions")
	}
	if res.SlabSeries.Points[0].Slabs != nil {
		t.Fatal("gdsf has no slab series")
	}
	if res.Stats.Gets == 0 || res.Stats.Evictions == 0 {
		t.Fatalf("gdsf stats empty: %+v", res.Stats)
	}
}

func TestRunProducesSeries(t *testing.T) {
	res, err := Run(tinySpec("pama"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Series.Points))
	}
	last := res.Series.Final()
	if last.GetsServed == 0 || last.HitRatio <= 0 || last.HitRatio > 1 {
		t.Fatalf("final point implausible: %+v", last)
	}
	if res.Stats.Gets == 0 || res.Stats.Sets == 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
	if res.Decisions == nil {
		t.Fatal("pama run should report decisions")
	}
	var evicts uint64
	for _, n := range res.EvictsBySub {
		evicts += n
	}
	if len(res.EvictsBySub) != 5 || len(res.EvictedPenaltyBySub) != 5 || evicts != res.Stats.Evictions {
		t.Fatalf("evictions by subclass %v (penalty %v) do not sum to %d",
			res.EvictsBySub, res.EvictedPenaltyBySub, res.Stats.Evictions)
	}
	if res.ServiceHist.Count == 0 {
		t.Fatal("service histogram empty")
	}
	if len(res.SlabSeries.Points) == 0 || res.SlabSeries.Points[0].Slabs == nil {
		t.Fatal("slab series missing")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinySpec("pama"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinySpec("pama"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("same spec diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
	for i := range a.Series.Points {
		if a.Series.Points[i].HitRatio != b.Series.Points[i].HitRatio {
			t.Fatalf("window %d hit ratio differs", i)
		}
	}
}

func TestRunHitRatioImprovesWithCache(t *testing.T) {
	small := tinySpec("memcached")
	small.CacheBytes = 4 << 20
	big := tinySpec("memcached")
	big.CacheBytes = 64 << 20
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Series.MeanHitRatio() <= rs.Series.MeanHitRatio() {
		t.Fatalf("bigger cache should hit more: %.3f vs %.3f",
			rb.Series.MeanHitRatio(), rs.Series.MeanHitRatio())
	}
}

func TestRunRepeatsExtendSeries(t *testing.T) {
	spec := tinySpec("memcached")
	spec.Repeats = 2
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Gets; got < 2*50_000 {
		t.Fatalf("gets = %d, want about double the single-repeat count", got)
	}
	// Second pass replays identical keys: hit ratio must improve.
	n := len(res.Series.Points)
	if res.Series.Points[n-1].HitRatio <= res.Series.Points[0].HitRatio {
		t.Fatal("repeat pass did not benefit from warm cache")
	}
}

func TestRunBurstInjects(t *testing.T) {
	spec := tinySpec("psa")
	spec.Burst = &BurstSpec{At: 20_000, FracOfCache: 0.10, Classes: []int{2, 3, 4}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(tinySpec("psa"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sets <= base.Stats.Sets {
		t.Fatal("burst did not add SETs")
	}
}

func TestRunSubclassSampling(t *testing.T) {
	spec := tinySpec("pama")
	spec.SampleSubClass = 0
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Series.Final()
	if len(p.Extra) != 5 {
		t.Fatalf("Extra = %v, want 5 subclass shares", p.Extra)
	}
}

func TestRunUniformPenaltyMakesSchemesAgreeOnWeighting(t *testing.T) {
	// Under a uniform penalty model, PAMA's penalty weighting is a
	// constant scale of pre-PAMA's counting; both should achieve very
	// similar hit ratios (subclassing collapses to one populated
	// subclass).
	mkSpec := func(kind string) Spec {
		s := tinySpec(kind)
		s.Workload.Penalty = penalty.Uniform(0.1)
		return s
	}
	a, err := Run(mkSpec("pama"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mkSpec("pre-pama"))
	if err != nil {
		t.Fatal(err)
	}
	da := a.Series.MeanHitRatio() - b.Series.MeanHitRatio()
	if da < -0.05 || da > 0.05 {
		t.Fatalf("uniform-penalty hit ratios diverged: pama=%.3f pre=%.3f",
			a.Series.MeanHitRatio(), b.Series.MeanHitRatio())
	}
}

func TestRunMatrixParallelOrder(t *testing.T) {
	specs := []Spec{tinySpec("memcached"), tinySpec("psa"), tinySpec("pama")}
	res, err := RunMatrix(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil || r.Spec.Policy.Kind != specs[i].Policy.Kind {
			t.Fatalf("result %d out of order or nil", i)
		}
	}
}

func TestRunMatrixReportsErrors(t *testing.T) {
	bad := tinySpec("bogus")
	res, err := RunMatrix([]Spec{tinySpec("memcached"), bad}, 2)
	if err == nil {
		t.Fatal("matrix error swallowed")
	}
	if res[0] == nil {
		t.Fatal("good spec should still produce a result")
	}
	if res[1] != nil {
		t.Fatal("bad spec should produce nil")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error lacks context: %v", err)
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{Policy: PolicySpec{Kind: "pama"}}.withDefaults()
	if !s.Geometry.Equal(kv.DefaultGeometry()) {
		t.Fatal("geometry default missing")
	}
	if s.Requests == 0 || s.MetricsWindow == 0 || s.EngineWindow == 0 || s.HitTime == 0 {
		t.Fatalf("defaults incomplete: %+v", s)
	}
	if s.Name != "pama" {
		t.Fatalf("name default = %q", s.Name)
	}
}
