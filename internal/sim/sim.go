// Package sim drives request streams through the cache engine and collects
// the paper's evaluation metrics: per-window hit ratio and average GET
// service time (windows counted in served GETs, paper x-axis), per-class
// slab allocation series, and service-time histograms.
//
// A Spec fully describes one experiment run (workload, cache size, policy,
// optional cold burst, repeats); RunMatrix executes a set of Specs on a
// bounded worker pool, generating each distinct request stream once for
// every arm that replays it; Run is RunMatrix of one Spec. Experiment
// matrices are embarrassingly parallel, and this is where the repository
// spends its cores.
package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/gds"
	"pamakv/internal/kv"
	"pamakv/internal/metrics"
	"pamakv/internal/obs"
	"pamakv/internal/penalty"
	"pamakv/internal/policy"
	"pamakv/internal/trace"
	"pamakv/internal/workload"
)

// Roster is every policy kind PolicySpec.Build accepts, in the baselines
// figure's row order: the paper's four schemes, LAMA's two objectives, CAMP,
// and "gdsf", the item-granularity GreedyDual-Size-Frequency engine that
// Run drives instead of a slab policy. It is the one place the list is
// spelled out; each kind's claim is asserted by TestBaselinesShape.
var Roster = append(append([]string(nil), FigurePolicies...), "lama-hit", "lama-time", "camp", "gdsf")

// SlabKinds returns the roster's slab policies: every kind but "gdsf", the
// ones a cache.Cache (and so pama-server) can run.
func SlabKinds() []string { return Roster[:len(Roster)-1] }

// PolicySpec names and parameterizes an allocation policy.
type PolicySpec struct {
	// Kind is one of Roster; "" means "memcached".
	Kind string
	// PAMA configures pama/pre-pama. The zero value selects paper
	// defaults; to run PAMA with a custom M (including M=0, Fig. 10),
	// set PenaltyAware explicitly: core.Config{M: 0, PenaltyAware: true}.
	PAMA core.Config
	// PSAPeriod is PSA's miss period (0 = default 1000).
	PSAPeriod uint64
}

// Build constructs the policy.
func (p PolicySpec) Build() (cache.Policy, error) {
	switch p.Kind {
	case "memcached", "":
		return policy.NewStatic(), nil
	case "psa":
		return policy.NewPSA(p.PSAPeriod), nil
	case "pama":
		cfg := p.PAMA
		if cfg.M == 0 && !cfg.PenaltyAware {
			cfg = core.DefaultConfig()
		} else {
			cfg.PenaltyAware = true
		}
		return core.New(cfg), nil
	case "pre-pama":
		cfg := p.PAMA
		cfg.PenaltyAware = false
		cfg.Bounds = nil
		if cfg.M == 0 {
			cfg.M = 2
		}
		return core.New(cfg), nil
	case "lama-hit":
		return policy.NewLAMA(policy.ObjectiveMissRatio), nil
	case "lama-time":
		return policy.NewLAMA(policy.ObjectiveAvgTime), nil
	case "camp":
		return policy.NewCAMP(), nil
	case "gdsf":
		// GDSF is a whole engine, not a slab policy; Run special-cases
		// it. Returning a sentinel keeps Build usable for validation.
		return nil, nil
	default:
		return nil, fmt.Errorf("sim: unknown policy kind %q", p.Kind)
	}
}

// engine is the cache surface the runner drives; *cache.Cache implements it
// natively and gdsfEngine adapts gds.Cache.
type engine interface {
	Get(key string, sizeHint int, penHint float64, buf []byte) ([]byte, uint32, bool)
	Set(key string, size int, pen float64, flags uint32, value []byte) error
	Delete(key string) bool
	Stats() cache.Stats
	SnapshotSlabs() []int
	SnapshotSubSlabs(class int) []float64
	CheckInvariants() error
}

// gdsfEngine adapts the GDSF cache to the runner's surface.
type gdsfEngine struct{ g *gds.Cache }

func (e gdsfEngine) Get(key string, sizeHint int, penHint float64, buf []byte) ([]byte, uint32, bool) {
	return e.g.Get(key, sizeHint, penHint, buf)
}
func (e gdsfEngine) Set(key string, size int, pen float64, flags uint32, value []byte) error {
	return e.g.Set(key, size, pen, flags, value)
}
func (e gdsfEngine) Delete(key string) bool { return e.g.Delete(key) }
func (e gdsfEngine) Stats() cache.Stats {
	st := e.g.Stats()
	return cache.Stats{
		Gets: st.Gets, Hits: st.Hits, Misses: st.Misses,
		Sets: st.Sets, Deletes: st.Deletes,
		Evictions: st.Evictions, TooLarge: st.TooLarge,
	}
}
func (e gdsfEngine) SnapshotSlabs() []int           { return nil }
func (e gdsfEngine) SnapshotSubSlabs(int) []float64 { return nil }
func (e gdsfEngine) CheckInvariants() error         { return e.g.CheckInvariants() }

// BurstSpec injects the paper §IV-C cold flood.
type BurstSpec struct {
	// At is the GET-request position where the burst starts.
	At uint64
	// FracOfCache sizes the burst relative to the cache (paper: 0.10).
	FracOfCache float64
	// Classes are the impacted size bands (paper: three).
	Classes []int
}

// Spec describes one experiment run.
type Spec struct {
	// Name labels the run's series.
	Name string
	// Workload generates the request stream.
	Workload workload.Config
	// CacheBytes is the cache size.
	CacheBytes int64
	// Geometry overrides kv.DefaultGeometry when non-zero.
	Geometry kv.Geometry
	// Requests is the stream length per repeat.
	Requests uint64
	// Repeats replays the identical stream this many times (Fig. 7/8
	// repeat the APP trace to strip cold misses); 0 means 1.
	Repeats int
	// MetricsWindow is GETs per reported point (paper: 1M, scaled).
	MetricsWindow uint64
	// EngineWindow is the engine's value window in accesses.
	EngineWindow uint64
	// HitTime is the GET-hit service time in seconds.
	HitTime float64
	// Policy selects the allocation scheme.
	Policy PolicySpec
	// Tracker selects segment tracking (PAMA only).
	Tracker cache.TrackerKind
	// Burst optionally injects the cold flood.
	Burst *BurstSpec
	// SampleSubClass records per-subclass slab shares of this class in
	// Point.Extra (-1 disables). Fig. 4 uses classes 0 and 8.
	SampleSubClass int
}

// withDefaults fills unset fields.
func (s Spec) withDefaults() Spec {
	if s.Geometry.IsZero() {
		s.Geometry = kv.DefaultGeometry()
	}
	if s.Requests == 0 {
		s.Requests = 1_000_000
	}
	if s.Repeats <= 0 {
		s.Repeats = 1
	}
	if s.MetricsWindow == 0 {
		s.MetricsWindow = s.Requests / 40
		if s.MetricsWindow == 0 {
			s.MetricsWindow = 1
		}
	}
	if s.EngineWindow == 0 {
		s.EngineWindow = s.MetricsWindow / 2
		if s.EngineWindow == 0 {
			s.EngineWindow = 1
		}
	}
	if s.HitTime == 0 {
		s.HitTime = penalty.DefaultHitTime
	}
	if s.Name == "" {
		s.Name = s.Policy.Kind
	}
	return s
}

// Result carries everything a run produced.
type Result struct {
	Spec   Spec
	Series metrics.Series
	// SlabSeries shadows Series with per-class slab snapshots.
	SlabSeries metrics.Series
	Stats      cache.Stats
	// Decisions is non-nil for pama/pre-pama runs.
	Decisions *cache.PolicyDecisions
	// EvictsBySub and EvictedPenaltyBySub are the engine's evictions and
	// their summed penalty by subclass (slab engines only; nil for gdsf).
	EvictsBySub         []uint64
	EvictedPenaltyBySub []float64
	// ServiceHist is the log-histogram of GET service times.
	ServiceHist obs.HistSnapshot
	// MissPenalty is the summed miss penalty of every GET miss — the
	// penalty-weighted miss cost the cost-aware baselines optimize.
	MissPenalty float64
	// BytesHoles is the final per-class internal fragmentation (slab
	// engines only; nil for gdsf); HolesBytes is its sum and Items the
	// final resident count, for normalizing holes per item.
	BytesHoles []int64
	HolesBytes int64
	Items      int
	// SlotSizes is the slot table the run used.
	SlotSizes []int
}

// Run executes one experiment: RunMatrix of the one spec.
func Run(spec Spec) (*Result, error) {
	res, err := RunMatrix([]Spec{spec}, 1)
	return res[0], err
}

// rec is one request of a replayed stream, keyed and priced once when the
// stream is generated; every arm that replays the stream reads it.
type rec struct {
	id   uint64
	pen  float64
	size uint32
	op   kv.Op
}

// record prices r under model.
func record(r trace.Request, model penalty.Model) rec {
	return rec{id: r.Key, pen: model.Of(kv.HashString(kv.KeyString(r.Key)), int(r.Size)), size: r.Size, op: r.Op}
}

// serve applies one request to c; it is the simulator's only request
// switch. A GET that misses is refilled with a SET: the GET-miss → backend
// fetch → SET refill pattern penalties are estimated from. It reports
// whether r was a GET and whether it hit; a store the engine refuses for
// capacity is not an error.
func serve(c engine, r *rec) (get, hit bool, err error) {
	key := kv.KeyString(r.id)
	size := int(r.size)
	switch r.op {
	case kv.Get:
		get = true
		if _, _, hit = c.Get(key, size, r.pen, nil); !hit {
			err = c.Set(key, size, r.pen, 0, nil)
		}
	case kv.Set:
		err = c.Set(key, size, r.pen, 0, nil)
	case kv.Delete:
		c.Delete(key)
	}
	if ignorableSet(err) {
		err = nil
	}
	return get, hit, err
}

// ignorableSet reports whether a store error is an expected capacity
// refusal (the engine wraps both with detail) rather than a bug.
func ignorableSet(err error) bool {
	return errors.Is(err, cache.ErrNoSpace) || errors.Is(err, cache.ErrTooLarge)
}

// stream is the request sequence a group of arms replays: one repeat's
// records, and the cold burst spliced into the first repeat before
// recs[at].
type stream struct {
	recs, burst []rec
	at          int
}

// sameStream reports whether a and b replay the same requests: the same
// workload and length, and the same spliced burst. Repeats is not part of
// it: each arm replays the records as many times as its spec says.
func sameStream(a, b Spec) bool {
	if a.Requests != b.Requests || !reflect.DeepEqual(a.Workload, b.Workload) || (a.Burst == nil) != (b.Burst == nil) {
		return false
	}
	return a.Burst == nil || a.Burst.At == b.Burst.At && slices.Equal(a.Burst.Classes, b.Burst.Classes) &&
		a.Burst.totalBytes(a.CacheBytes) == b.Burst.totalBytes(b.CacheBytes)
}

// totalBytes is the burst's byte total in a cache of cacheBytes.
func (b *BurstSpec) totalBytes(cacheBytes int64) int64 {
	return int64(b.FracOfCache * float64(cacheBytes))
}

// generate materializes spec's stream. It is stored whole rather than
// streamed to the arms in chunks, so that an arm's engine lives only while
// that arm replays (DESIGN.md §4).
func generate(spec Spec) (*stream, error) {
	gen, err := workload.New(spec.Workload)
	if err != nil {
		return nil, err
	}
	model := spec.Workload.Penalty
	s := &stream{recs: make([]rec, spec.Requests)}
	for i := range s.recs {
		r, err := gen.Next()
		if err != nil {
			return nil, err
		}
		s.recs[i] = record(r, model)
	}
	// A burst past the end of the stream never fires.
	if b := spec.Burst; b != nil && b.At <= spec.Requests {
		for _, r := range workload.MakeBurst(workload.BurstConfig{
			TotalBytes: b.totalBytes(spec.CacheBytes),
			Classes:    b.Classes,
			BaseSize:   spec.Workload.BaseSize,
			Seed:       spec.Workload.Seed,
		}) {
			s.burst = append(s.burst, record(r, model))
		}
		s.at = int(b.At)
	}
	return s, nil
}

// newEngine builds the engine spec's policy runs on.
func newEngine(spec Spec) (engine, error) {
	pol, err := spec.Policy.Build()
	if err != nil {
		return nil, err
	}
	if spec.Policy.Kind == "gdsf" {
		g, err := gds.New(spec.CacheBytes, false)
		if err != nil {
			return nil, err
		}
		return gdsfEngine{g}, nil
	}
	eng, err := cache.New(cache.Config{
		Geometry:   spec.Geometry,
		CacheBytes: spec.CacheBytes,
		WindowLen:  spec.EngineWindow,
		Tracker:    spec.Tracker,
	}, pol)
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// replay runs one arm: spec's engine over s, Repeats times.
func replay(spec Spec, s *stream) (*Result, error) {
	c, err := newEngine(spec)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec}
	res.Series.Name = spec.Name
	res.SlabSeries.Name = spec.Name
	svcHist := obs.NewHist(0.0001, 6)

	var win metrics.Window
	var gets uint64
	snapshot := func() {
		p := metrics.Point{
			GetsServed: gets,
			HitRatio:   win.HitRatio(),
			AvgService: win.AvgService(),
		}
		if spec.SampleSubClass >= 0 {
			p.Extra = c.SnapshotSubSlabs(spec.SampleSubClass)
		}
		res.Series.Append(p)
		sp := p
		sp.Slabs = c.SnapshotSlabs()
		res.SlabSeries.Append(sp)
		win.Reset()
	}

	for rep := 0; rep < spec.Repeats; rep++ {
		parts := [][]rec{s.recs}
		if rep == 0 && s.burst != nil {
			parts = [][]rec{s.recs[:s.at], s.burst, s.recs[s.at:]}
		}
		for _, part := range parts {
			for i := range part {
				r := &part[i]
				get, hit, err := serve(c, r)
				if err != nil {
					return nil, err
				}
				if !get {
					continue
				}
				svc := spec.HitTime
				if !hit {
					svc = r.pen
					res.MissPenalty += r.pen
				}
				win.Add(hit, svc)
				svcHist.Observe(svc)
				gets++
				if gets%spec.MetricsWindow == 0 {
					snapshot()
				}
			}
		}
	}
	if win.Gets > 0 {
		snapshot()
	}
	if eng, ok := c.(*cache.Cache); ok {
		in := eng.Introspect()
		res.BytesHoles = in.BytesHoles
		res.HolesBytes = eng.HolesTotal()
		res.Items = in.Items
		res.SlotSizes = in.SlotSizes
		res.Decisions = in.Decisions
		res.EvictsBySub = in.EvictsBySub
		res.EvictedPenaltyBySub = in.EvictedPenaltyBySub
	}
	res.Stats = c.Stats()
	res.ServiceHist = svcHist.Snapshot()
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sim: post-run invariant violation: %w", err)
	}
	return res, nil
}

// RunMatrix executes specs on up to workers goroutines (workers <= 0
// selects GOMAXPROCS) and returns results in spec order. Specs that replay
// the same requests (sameStream) form a group whose stream is generated
// once, and the group's arms run next to each other. Individual failures
// surface as nil results plus a joined error.
func RunMatrix(specs []Spec, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	specs = slices.Clone(specs)
	for i := range specs {
		specs[i] = specs[i].withDefaults()
	}
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	grouped := make([]bool, len(specs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range specs {
		if grouped[i] {
			continue
		}
		sem <- struct{}{}
		s, err := generate(specs[i])
		<-sem
		for j := i; j < len(specs); j++ {
			if grouped[j] || !sameStream(specs[i], specs[j]) {
				continue
			}
			grouped[j] = true
			if err != nil {
				errs[j] = err
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(j int) {
				defer func() { <-sem; wg.Done() }()
				results[j], errs[j] = replay(specs[j], s)
			}(j)
		}
	}
	wg.Wait()
	var err error
	for i, e := range errs {
		if e != nil {
			err = errors.Join(err, fmt.Errorf("spec %d (%s): %w", i, specs[i].Name, e))
		}
	}
	return results, err
}
