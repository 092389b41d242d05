package sim

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"pamakv/internal/oracle"
	"pamakv/internal/trace"
	"pamakv/internal/workload"
)

// oracleKinds name the clairvoyant rows the baselines figure adds on the
// ETC stream (package oracle); they are replays, not PolicySpec kinds.
var oracleKinds = []string{"belady", "cost-belady"}

// figureBaselines runs every Roster kind over two streams, APP at 64 MiB and
// ETC with a 32 Ki-key space at 16 MiB. Request counts and the 200 k-GET
// metrics window scale; at scale 0.25 they are the 200 k and 150 k requests
// in 50 k-GET windows.
func figureBaselines(scale float64) *Figure {
	etc := workload.ETC()
	etc.Keys = 1 << 15
	f := &Figure{
		ID:        "baselines",
		Title:     "Every policy kind on APP (64 MiB) and ETC (16 MiB), plus clairvoyant bounds on ETC",
		GroupSize: len(Roster),
		Render:    RenderBaselines,
	}
	for _, st := range []struct {
		name       string
		wl         workload.Config
		cacheBytes int64
		requests   uint64
	}{
		{"app", workload.APP(), 64 << 20, 800_000},
		{"etc", etc, 16 << 20, 600_000},
	} {
		for _, kind := range Roster {
			s := baseSpec(st.wl, st.cacheBytes, scaled(st.requests, scale), kind)
			s.Name = st.name + "/" + kind
			s.MetricsWindow = scaled(200_000, scale)
			f.Specs = append(f.Specs, s)
		}
	}
	return f
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
