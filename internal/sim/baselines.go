package sim

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/oracle"
	"pamakv/internal/penalty"
	"pamakv/internal/trace"
	"pamakv/internal/workload"
)

// oracleKinds name the clairvoyant rows the baselines figure adds on the
// ETC stream (package oracle); they are replays, not PolicySpec kinds.
var oracleKinds = []string{"belady", "cost-belady"}

// etcTableSpec is one arm on the ETC stream that the baselines and the
// ablations figures both replay: a 32 Ki-key space at 16 MiB, 600 k
// requests in 200 k-GET metrics windows, the counts scaled.
func etcTableSpec(kind string, scale float64) Spec {
	wl := workload.ETC()
	wl.Keys = 1 << 15
	s := baseSpec(wl, 16<<20, scaled(600_000, scale), kind)
	s.MetricsWindow = scaled(200_000, scale)
	return s
}

// figureBaselines runs every Roster kind over two streams, APP at 64 MiB and
// the ETC table stream, in the same metrics windows. At scale 0.25 they are
// the 200 k and 150 k requests in 50 k-GET windows.
func figureBaselines(scale float64) (*Figure, error) {
	f := &Figure{
		ID:        "baselines",
		Title:     "Every policy kind on APP (64 MiB) and ETC (16 MiB), plus clairvoyant bounds on ETC",
		GroupSize: len(Roster),
		Render:    RenderBaselines,
	}
	for _, kind := range Roster {
		s := etcTableSpec(kind, scale)
		s.Name = "app/" + kind
		s.Workload, s.CacheBytes, s.Requests = workload.APP(), 64<<20, scaled(800_000, scale)
		f.Specs = append(f.Specs, s)
	}
	for _, kind := range Roster {
		s := etcTableSpec(kind, scale)
		s.Name = "etc/" + kind
		f.Specs = append(f.Specs, s)
	}
	return f, nil
}

// figureAblations replays the ETC table stream under PAMA with one design
// choice changed per arm: the paper's Bloom segment tracking against the
// exact tracker, 1, 3 and 8 penalty subclasses against the paper's five
// decade edges, and the engine's value window at a fifth and four times its
// default (half the metrics window, 100 k accesses at scale 1). Its pama row
// is the baselines figure's etc/pama run. TestAblationsShape gates it.
func figureAblations(scale float64) (*Figure, error) {
	f := &Figure{
		ID:     "ablations",
		Title:  "PAMA design choices on ETC (16 MiB): segment tracking, subclass count, value window",
		Render: WriteSummary,
	}
	pama := etcTableSpec("pama", scale)
	win := pama.MetricsWindow / 2
	for _, arm := range []struct {
		name    string
		tracker cache.TrackerKind
		bounds  []float64
		window  uint64
	}{
		{"pama", cache.TrackerExact, penalty.SubclassBounds, win},
		{"bloom", cache.TrackerBloom, penalty.SubclassBounds, win},
		{"sub1", cache.TrackerExact, []float64{penalty.Cap}, win},
		{"sub3", cache.TrackerExact, []float64{0.01, 0.5, penalty.Cap}, win},
		{"sub8", cache.TrackerExact, []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, penalty.Cap}, win},
		{"window/5", cache.TrackerExact, penalty.SubclassBounds, win / 5},
		{"window*4", cache.TrackerExact, penalty.SubclassBounds, win * 4},
	} {
		s := pama
		s.Name, s.Tracker, s.EngineWindow = arm.name, arm.tracker, arm.window
		s.Policy.PAMA = core.Config{M: 2, PenaltyAware: true, Bounds: arm.bounds}
		f.Specs = append(f.Specs, s)
	}
	return f, nil
}

// baselineRow is one line of the baselines figure. Service times are in
// seconds; Mean is the mean of the per-window averages and Tail the mean
// of the last quarter of windows. The clairvoyant rows carry Mean as the
// replay's whole-stream average and no Tail, P99 or Migrations.
type baselineRow struct {
	Stream, Kind         string
	Hit, Mean, Tail, P99 float64
	Migrations           uint64
}

// baselineRows turns the figure's runs into rows, then replays the ETC
// stream under each oracleKinds variant and appends those rows.
func baselineRows(res []*Result) ([]baselineRow, error) {
	var rows []baselineRow
	var etc *Result
	for _, r := range res {
		if r == nil {
			continue
		}
		stream, kind, _ := strings.Cut(r.Spec.Name, "/")
		rows = append(rows, baselineRow{
			Stream: stream, Kind: kind,
			Hit: r.Series.MeanHitRatio(), Mean: r.Series.MeanAvgService(),
			Tail: r.Series.TailMeanAvgService(0.25), P99: r.ServiceHist.Quantile(0.99),
			Migrations: r.Stats.SlabMigrations,
		})
		if stream == "etc" {
			etc = r
		}
	}
	if etc == nil {
		return rows, nil
	}
	gen, err := workload.New(etc.Spec.Workload)
	if err != nil {
		return nil, err
	}
	reqs, err := trace.Collect(&trace.Limit{S: gen, N: etc.Spec.Requests}, -1)
	if err != nil {
		return nil, err
	}
	for i, v := range []oracle.Variant{oracle.Belady, oracle.CostBelady} {
		o, err := oracle.Run(reqs, etc.Spec.CacheBytes, etc.Spec.Workload.Penalty, etc.Spec.HitTime, v)
		if err != nil {
			return nil, err
		}
		rows = append(rows, baselineRow{Stream: "etc", Kind: oracleKinds[i], Hit: o.HitRatio, Mean: o.AvgService})
	}
	return rows, nil
}

// RenderBaselines writes the baselines table (results/fig_baselines.tsv).
func RenderBaselines(w io.Writer, res []*Result) error {
	rows, err := baselineRows(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "stream\tkind\tmean_hit\tmean_service_s\ttail_service_s\tp99_service_s\tmigrations")
	for _, r := range rows {
		if slices.Contains(oracleKinds, r.Kind) {
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.6f\t-\t-\t-\n", r.Stream, r.Kind, r.Hit, r.Mean)
			continue
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%.4f\t%.6f\t%.6f\t%.6f\t%d\n",
			r.Stream, r.Kind, r.Hit, r.Mean, r.Tail, r.P99, r.Migrations); err != nil {
			return err
		}
	}
	return nil
}
