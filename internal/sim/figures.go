package sim

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"pamakv/internal/geom"
	"pamakv/internal/kv"
	"pamakv/internal/metrics"
	"pamakv/internal/workload"
)

// The paper's experiments, scaled 1:100 by default: its 4–64 GB caches and
// 0.8–1.8 × 10⁹ request runs become 40–640 MiB and 10⁶–10⁷ requests with
// identical slab size (1 MiB) and class geometry, preserving slab-count
// ratios and footprint/cache ratios (DESIGN.md §2). The Scale factor
// multiplies request counts; cache sizes are fixed per figure.
const (
	etcRequests = 8_000_000 // paper: 8x10^8 ETC GETs
	appRequests = 6_000_000 // paper: ~9x10^8 APP GETs per pass, two passes
	// Paper cache sizes / 32: ETC 4/8/16 GB, APP 16/32/64 GB.
	etcCacheSmall = int64(128) << 20
	etcCacheMid   = int64(256) << 20
	etcCacheLarge = int64(512) << 20
	appCacheSmall = int64(512) << 20
	appCacheMid   = int64(1024) << 20
	appCacheLarge = int64(2048) << 20
)

// FigurePolicies are the four schemes of the paper's evaluation, in its
// plotting order.
var FigurePolicies = []string{"memcached", "psa", "pre-pama", "pama"}

// etcWorkload returns the scaled ETC model: the keyspace is reduced with
// the cache so footprint/cache ratios match the paper's regime.
func etcWorkload() workload.Config {
	cfg := workload.ETC()
	cfg.Keys = 256 * 1024
	return cfg
}

func appWorkload() workload.Config { return workload.APP() }

func scaled(n uint64, scale float64) uint64 {
	if scale <= 0 {
		scale = 1
	}
	v := uint64(float64(n) * scale)
	if v < 10_000 {
		v = 10_000
	}
	return v
}

// Figure is a set of runs plus instructions for rendering them.
type Figure struct {
	// ID is the paper figure number ("3", "5", ...) or the figure's name.
	ID string
	// Title describes the figure.
	Title string
	// Specs are the runs, executed with RunMatrix. A figure without Specs
	// computes its data in Render, which then ignores its results.
	Specs []Spec
	// Workers bounds the runs such a Render starts at once, as RunMatrix's
	// workers bounds Specs (pama-bench -workers); 0 means GOMAXPROCS.
	Workers int
	// GroupSize is how many consecutive results form one sub-plot (one
	// cache size, one workload); 0 means all results together.
	GroupSize int
	// Render writes the figure's data given results aligned with Specs.
	Render func(w io.Writer, res []*Result) error
}

// Groups splits results into the figure's sub-plot groups.
func (f *Figure) Groups(res []*Result) [][]*Result {
	g := f.GroupSize
	if g <= 0 {
		g = len(res)
	}
	var out [][]*Result
	for i := 0; i < len(res); i += g {
		end := i + g
		if end > len(res) {
			end = len(res)
		}
		out = append(out, res[i:end])
	}
	return out
}

// figureTable is the one list of figures, in pama-bench -fig all order: the
// paper's figures, the memory-holes and design-choice ablations, the
// multi-tenant and churn figures, and the comparator table. Each entry
// names the ids it answers to, its own first (Figs 6 and 8 are the second
// panels of the runs behind 5 and 7), and builds the figure at a
// request-count scale.
var figureTable = []struct {
	ids   []string
	build func(scale float64) (*Figure, error)
}{
	{[]string{"3"}, figure3},
	{[]string{"4"}, figure4},
	{[]string{"5", "6"}, figure56},
	{[]string{"7", "8"}, figure78},
	{[]string{"9"}, figure9},
	{[]string{"10"}, figure10},
	{[]string{"holes"}, figureHoles},
	{[]string{"ablations"}, figureAblations},
	{[]string{"tenants"}, figureTenants},
	{[]string{"churn"}, figureChurn},
	{[]string{"baselines"}, figureBaselines},
}

// FigureByID builds the figure that answers to id at the given
// request-count scale (1.0 = the 1:100-scaled defaults above).
func FigureByID(id string, scale float64) (*Figure, error) {
	var all []string
	for _, e := range figureTable {
		if slices.Contains(e.ids, id) {
			return e.build(scale)
		}
		all = append(all, e.ids...)
	}
	return nil, fmt.Errorf("sim: unknown figure %q (have %s)", id, strings.Join(all, ","))
}

// AllFigureIDs returns one id per figure, in table order.
func AllFigureIDs() []string {
	ids := make([]string, len(figureTable))
	for i, e := range figureTable {
		ids[i] = e.ids[0]
	}
	return ids
}

func baseSpec(wl workload.Config, cacheBytes int64, reqs uint64, kind string) Spec {
	return Spec{
		Name:           kind,
		Workload:       wl,
		CacheBytes:     cacheBytes,
		Requests:       reqs,
		MetricsWindow:  reqs / 40,
		Policy:         PolicySpec{Kind: kind},
		SampleSubClass: -1,
	}
}

func figure3(scale float64) (*Figure, error) {
	reqs := scaled(etcRequests, scale)
	f := &Figure{
		ID:    "3",
		Title: "Space allocation per class over time (ETC, mid cache), 4 schemes",
	}
	for _, kind := range FigurePolicies {
		f.Specs = append(f.Specs, baseSpec(etcWorkload(), etcCacheMid, reqs, kind))
	}
	f.Render = func(w io.Writer, res []*Result) error {
		nc := kv.DefaultGeometry().NumClasses
		for _, r := range res {
			fmt.Fprintf(w, "# Fig 3: slabs per class, scheme=%s\n", r.Spec.Name)
			if err := metrics.WriteSlabTSV(w, &r.SlabSeries, nc); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return f, nil
}

func figure4(scale float64) (*Figure, error) {
	reqs := scaled(etcRequests, scale)
	f := &Figure{
		ID:    "4",
		Title: "Slab-equivalents per subclass inside Class 0 and Class 8 (PAMA, ETC)",
	}
	for _, class := range []int{0, 8} {
		s := baseSpec(etcWorkload(), etcCacheMid, reqs, "pama")
		s.Name = fmt.Sprintf("pama-class%d", class)
		s.SampleSubClass = class
		f.Specs = append(f.Specs, s)
	}
	f.Render = func(w io.Writer, res []*Result) error {
		for _, r := range res {
			fmt.Fprintf(w, "# Fig 4: subclass slab-equivalents, %s\n", r.Spec.Name)
			fmt.Fprintln(w, "gets\tsub0\tsub1\tsub2\tsub3\tsub4")
			for _, p := range r.Series.Points {
				row := []string{fmt.Sprintf("%d", p.GetsServed)}
				for _, v := range p.Extra {
					row = append(row, fmt.Sprintf("%.2f", v))
				}
				fmt.Fprintln(w, strings.Join(row, "\t"))
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return f, nil
}

func figure56(scale float64) (*Figure, error) {
	reqs := scaled(etcRequests, scale)
	f := &Figure{
		ID:        "5",
		Title:     "ETC hit ratio (Fig 5) and avg service time (Fig 6) vs time, 3 cache sizes",
		GroupSize: len(FigurePolicies),
	}
	caches := []int64{etcCacheSmall, etcCacheMid, etcCacheLarge}
	for _, cb := range caches {
		for _, kind := range FigurePolicies {
			s := baseSpec(etcWorkload(), cb, reqs, kind)
			s.Name = fmt.Sprintf("%s/%dMiB", kind, cb>>20)
			f.Specs = append(f.Specs, s)
		}
	}
	f.Render = f.renderGrouped
	return f, nil
}

func figure78(scale float64) (*Figure, error) {
	reqs := scaled(appRequests, scale)
	f := &Figure{
		ID:        "7",
		Title:     "APP hit ratio (Fig 7) and avg service time (Fig 8), trace played twice, 3 cache sizes",
		GroupSize: len(FigurePolicies),
	}
	caches := []int64{appCacheSmall, appCacheMid, appCacheLarge}
	for _, cb := range caches {
		for _, kind := range FigurePolicies {
			s := baseSpec(appWorkload(), cb, reqs, kind)
			s.Repeats = 2
			s.Name = fmt.Sprintf("%s/%dMiB", kind, cb>>20)
			f.Specs = append(f.Specs, s)
		}
	}
	f.Render = f.renderGrouped
	return f, nil
}

func figure9(scale float64) (*Figure, error) {
	reqs := scaled(etcRequests, scale)
	f := &Figure{
		ID:    "9",
		Title: "Cold-burst impact on hit ratio and service time (ETC, small cache), PSA vs PAMA",
	}
	burst := &BurstSpec{
		// Paper: burst at 0.35x10^8 of 8x10^8 GETs -> same relative
		// position; items total 10% of cache across 3 classes.
		At:          reqs * 35 / 800,
		FracOfCache: 0.10,
		Classes:     []int{3, 4, 5},
	}
	for _, kind := range []string{"psa", "pama"} {
		s := baseSpec(etcWorkload(), etcCacheSmall, reqs, kind)
		s.Name = kind + "/no-impact"
		f.Specs = append(f.Specs, s)
		sb := baseSpec(etcWorkload(), etcCacheSmall, reqs, kind)
		sb.Name = kind + "/impact"
		sb.Burst = burst
		f.Specs = append(f.Specs, sb)
	}
	f.Render = f.renderGrouped
	return f, nil
}

func figure10(scale float64) (*Figure, error) {
	ms := []int{0, 2, 4, 8}
	f := &Figure{
		ID:        "10",
		Title:     "Sensitivity to reference-segment count m (ETC small cache, APP small cache)",
		GroupSize: len(ms),
	}
	etcReqs := scaled(etcRequests, scale)
	for _, m := range ms {
		s := baseSpec(etcWorkload(), etcCacheSmall, etcReqs, "pama")
		s.Name = fmt.Sprintf("etc/m=%d", m)
		s.Policy.PAMA.M = m
		s.Policy.PAMA.PenaltyAware = true
		f.Specs = append(f.Specs, s)
	}
	appReqs := scaled(appRequests, scale)
	for _, m := range ms {
		s := baseSpec(appWorkload(), appCacheSmall, appReqs, "pama")
		s.Name = fmt.Sprintf("app/m=%d", m)
		s.Policy.PAMA.M = m
		s.Policy.PAMA.PenaltyAware = true
		f.Specs = append(f.Specs, s)
	}
	f.Render = f.renderGrouped
	return f, nil
}

// holesLearnSamples is how many leading requests of the trace the
// memory-holes ablation learns its slot table from.
const holesLearnSamples = 8192

// learnedGeometry solves a slot table for wl (package geom) from the sizes
// of its first holesLearnSamples requests, keeping base's class count, slab
// size and largest slot.
func learnedGeometry(wl workload.Config, base kv.Geometry) (kv.Geometry, error) {
	gen, err := workload.New(wl)
	if err != nil {
		return kv.Geometry{}, err
	}
	h := geom.NewHistogram(base.MaxItemSize())
	for i := 0; i < holesLearnSamples; i++ {
		r, err := gen.Next()
		if err != nil {
			return kv.Geometry{}, err
		}
		h.Observe(int(r.Size))
	}
	return h.Solve(base.NumClasses, base.SlabSize, base.MaxItemSize())
}

// figureHoles is the repository's memory-holes ablation: the same
// mixed-size trace through identical caches on the static power-of-two
// geometry and on a slot table solved from the head of the trace, under
// memcached's policy (po2, learned) and under PAMA (pama, pama-learned).
// The rendered table is results/fig_holes.tsv.
func figureHoles(scale float64) (*Figure, error) {
	reqs := scaled(2_000_000, scale)
	wl := workload.MixedSize()
	cacheBytes := int64(32) << 20
	learned, err := learnedGeometry(wl, kv.DefaultGeometry())
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "holes",
		Title:  "Memory holes: power-of-two vs learned slab geometry (MIXED workload)",
		Render: RenderHoles,
	}
	for _, run := range []struct {
		name, kind string
		geometry   kv.Geometry
	}{
		{"po2", "memcached", kv.Geometry{}},
		{"learned", "memcached", learned},
		// PAMA's subclass stacks fragment slabs differently, and its service
		// time is the paper's metric: the same pair under the paper's policy.
		{"pama", "pama", kv.Geometry{}},
		{"pama-learned", "pama", learned},
	} {
		s := baseSpec(wl, cacheBytes, reqs, run.kind)
		s.Name = run.name
		s.Geometry = run.geometry
		f.Specs = append(f.Specs, s)
	}
	return f, nil
}

// RenderHoles writes the memory-holes comparison: one summary row per run
// (holes in absolute bytes and per resident item, alongside hit ratio so
// the fragmentation win is shown at equal service quality), then each
// run's final slot table with per-class holes.
func RenderHoles(w io.Writer, res []*Result) error {
	fmt.Fprintln(w, "name\tmean_hit\titems\tholes_bytes\tholes_per_item\tmean_service_s\tmiss_penalty_s")
	for _, r := range res {
		if r == nil {
			continue
		}
		perItem := 0.0
		if r.Items > 0 {
			perItem = float64(r.HolesBytes) / float64(r.Items)
		}
		if _, err := fmt.Fprintf(w, "%s\t%.4f\t%d\t%d\t%.1f\t%.6f\t%.1f\n",
			r.Spec.Name, r.Series.MeanHitRatio(), r.Items, r.HolesBytes, perItem,
			r.Series.MeanAvgService(), r.MissPenalty); err != nil {
			return err
		}
	}
	for _, r := range res {
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "\n# final geometry: %s\nclass\tslot_bytes\tholes_bytes\n", r.Spec.Name)
		for cl, slot := range r.SlotSizes {
			holes := int64(0)
			if cl < len(r.BytesHoles) {
				holes = r.BytesHoles[cl]
			}
			fmt.Fprintf(w, "%d\t%d\t%d\n", cl, slot, holes)
		}
	}
	return nil
}

// renderGrouped prints each of f's sub-plot groups as series side by side,
// followed by a summary block.
func (f *Figure) renderGrouped(w io.Writer, res []*Result) error {
	for _, group := range f.Groups(res) {
		series := make([]*metrics.Series, 0, len(group))
		for _, r := range group {
			if r != nil {
				series = append(series, &r.Series)
			}
		}
		if err := metrics.WriteTSV(w, series); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return WriteSummary(w, res)
}

// WriteSummary prints one line per run: mean/tail hit ratio and service
// time — the numbers EXPERIMENTS.md tabulates against the paper.
func WriteSummary(w io.Writer, res []*Result) error {
	fmt.Fprintln(w, "# summary: name\tmeanHit\tmeanSvc\ttailSvc\tp99Svc\tevictions\tmigrations")
	for _, r := range res {
		if r == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s\t%.4f\t%.5f\t%.5f\t%.4f\t%d\t%d\n",
			r.Spec.Name, r.Series.MeanHitRatio(), r.Series.MeanAvgService(),
			r.Series.TailMeanAvgService(0.25), r.ServiceHist.Quantile(0.99), r.Stats.Evictions, r.Stats.SlabMigrations); err != nil {
			return err
		}
	}
	return nil
}
