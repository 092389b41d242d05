// Command pama-bench regenerates the paper's figures: it runs the scaled
// experiment matrix for a figure and prints the series as TSV (one row per
// window), plus a per-run summary. Every figure but Fig 1 comes from
// sim.FigureByID, whose table is the figure index (DESIGN.md §4); see
// EXPERIMENTS.md for recorded outputs.
//
// Usage:
//
//	pama-bench -fig 5              # ETC hit ratio + service time matrix
//	pama-bench -fig 1              # penalty-vs-size scatter (model sample)
//	pama-bench -fig baselines      # every policy kind on APP and ETC
//	pama-bench -fig ablations      # PAMA's design choices on ETC
//	pama-bench -fig tenants        # arbitrated tenants vs static partitions
//	pama-bench -fig churn          # cold vs warm rebalance on a node add
//	pama-bench -fig all -scale 0.1 # every figure at a tenth of the scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pamakv/internal/kv"
	"pamakv/internal/metrics"
	"pamakv/internal/plot"
	"pamakv/internal/sim"
	"pamakv/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1 (penalty-model sample), "+
		strings.Join(sim.AllFigureIDs(), ", ")+" or 'all' (6 and 8 are 5 and 7's service-time panels)")
	scale := flag.Float64("scale", 1.0, "request-count scale relative to the 1:100-scaled defaults")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation runs")
	doPlot := flag.Bool("plot", false, "render ASCII charts instead of raw TSV series (figures without series print their tables)")
	flag.Parse()

	if err := run(os.Stdout, *fig, *scale, *workers, *doPlot); err != nil {
		fmt.Fprintln(os.Stderr, "pama-bench:", err)
		os.Exit(1)
	}
}

// run writes the figures fig names to w, running at most workers simulations
// at once.
func run(w io.Writer, fig string, scale float64, workers int, doPlot bool) error {
	ids := []string{fig}
	if fig == "all" {
		ids = append([]string{"1"}, sim.AllFigureIDs()...)
	}
	for _, id := range ids {
		if id == "1" {
			figure1(w, doPlot)
			continue
		}
		f, err := sim.FigureByID(id, scale)
		if err != nil {
			return err
		}
		runs := ""
		if len(f.Specs) > 0 {
			runs = fmt.Sprintf("%d runs, ", len(f.Specs))
		}
		fmt.Fprintf(w, "## Figure %s: %s (%sscale %.2f)\n", f.ID, f.Title, runs, scale)
		start := time.Now()
		f.Workers = workers
		res, err := sim.RunMatrix(f.Specs, workers)
		if err != nil {
			return err
		}
		if doPlot && len(f.Specs) > 0 {
			err = renderPlots(w, f, res)
		} else {
			err = f.Render(w, res)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# figure %s wall time: %s\n\n", f.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// figure1 samples the penalty model over APP-distributed sizes and prints a
// (size, penalty) scatter — the reproduction of paper Fig. 1.
func figure1(w io.Writer, doPlot bool) {
	cfg := workload.APP()
	fmt.Fprintln(w, "## Figure 1: miss penalty vs item size (APP penalty model sample)")
	var xs, ys []float64
	if !doPlot {
		fmt.Fprintln(w, "size_bytes\tpenalty_s")
	}
	for i := uint64(0); i < 20_000; i++ {
		h := kv.Mix64(i * 0x9e3779b97f4a7c15)
		size := cfg.SizeOf(h)
		pen := cfg.Penalty.Of(h, size)
		if doPlot {
			xs = append(xs, float64(size))
			ys = append(ys, pen)
		} else {
			fmt.Fprintf(w, "%d\t%.4f\n", size, pen)
		}
	}
	if doPlot {
		plot.Scatter(w, "miss penalty (s) vs item size (bytes), log-log", xs, ys)
	}
	fmt.Fprintln(w)
}

// renderPlots draws each sub-plot group as two ASCII charts (hit ratio and
// service time), then the summary table.
func renderPlots(w io.Writer, f *sim.Figure, res []*sim.Result) error {
	for gi, group := range f.Groups(res) {
		var series []*metrics.Series
		for _, r := range group {
			if r != nil {
				series = append(series, &r.Series)
			}
		}
		title := fmt.Sprintf("Fig %s group %d", f.ID, gi+1)
		if err := plot.Series(w, title+" — hit ratio", plot.ColHitRatio, series); err != nil {
			return err
		}
		if err := plot.Series(w, title+" — avg service time (s)", plot.ColAvgService, series); err != nil {
			return err
		}
	}
	return sim.WriteSummary(w, res)
}
