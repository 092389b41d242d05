// Command pama-bench regenerates the paper's figures: it runs the scaled
// experiment matrix for a figure and prints the series as TSV (one row per
// window), plus a per-run summary. See DESIGN.md §4 for the figure index and
// EXPERIMENTS.md for recorded outputs.
//
// Usage:
//
//	pama-bench -fig 5              # ETC hit ratio + service time matrix
//	pama-bench -fig 1              # penalty-vs-size scatter (model sample)
//	pama-bench -fig baselines      # every policy kind on APP and ETC
//	pama-bench -fig ablations      # PAMA's design choices on ETC
//	pama-bench -fig all -scale 0.1 # every figure at a tenth of the scale
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pamakv/internal/kv"
	"pamakv/internal/metrics"
	"pamakv/internal/plot"
	"pamakv/internal/sim"
	"pamakv/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1,3,4,5,6,7,8,9,10, 'holes' (memory-holes ablation), 'ablations' (PAMA's design choices on ETC), 'tenants' (multi-tenant arbitration vs static partitions), 'churn' (cold rebalance vs penalty-ordered warm handoff on a node add), 'baselines' (every policy kind and the clairvoyant bounds on APP and ETC) or 'all'")
	scale := flag.Float64("scale", 1.0, "request-count scale relative to the 1:100-scaled defaults")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation runs")
	doPlot := flag.Bool("plot", false, "render ASCII charts instead of raw TSV series")
	flag.Parse()

	if err := run(*fig, *scale, *workers, *doPlot); err != nil {
		fmt.Fprintln(os.Stderr, "pama-bench:", err)
		os.Exit(1)
	}
}

func run(fig string, scale float64, workers int, doPlot bool) error {
	ids := []string{fig}
	if fig == "all" {
		// "tenants" is not a matrix figure (it compares N partitioned runs
		// against one arbitrated run), so it rides alongside AllFigureIDs;
		// the comparator table closes the run.
		ids = append(append([]string{"1"}, sim.AllFigureIDs()...), "tenants", "churn", "baselines")
	}
	done := map[string]bool{}
	for _, id := range ids {
		if done[id] {
			continue
		}
		done[id] = true
		switch id {
		case "1":
			figure1(doPlot)
		case "tenants":
			if err := figureTenants(scale); err != nil {
				return err
			}
		case "churn":
			if err := figureChurn(scale); err != nil {
				return err
			}
		case "6":
			id = "5" // figs 5 and 6 come from the same runs
			if done[id] {
				continue
			}
			done[id] = true
			fallthrough
		default:
			if id == "8" {
				id = "7"
				if done[id] {
					continue
				}
				done[id] = true
			}
			f, err := sim.FigureByID(id, scale)
			if err != nil {
				return err
			}
			fmt.Printf("## Figure %s: %s (%d runs, scale %.2f)\n", f.ID, f.Title, len(f.Specs), scale)
			start := time.Now()
			res, err := sim.RunMatrix(f.Specs, workers)
			if err != nil {
				return err
			}
			if doPlot {
				if err := renderPlots(f, res); err != nil {
					return err
				}
			} else if err := f.Render(os.Stdout, res); err != nil {
				return err
			}
			fmt.Printf("# figure %s wall time: %s\n\n", f.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// figureTenants runs the multi-tenant comparison: three statically
// partitioned caches against one arbitrated cache at ArbitratedFrac of
// their combined memory, rendered as the fig_tenants TSV.
func figureTenants(scale float64) error {
	fmt.Printf("## Figure tenants: penalty-aware arbitration vs static partitions (scale %.2f)\n", scale)
	start := time.Now()
	r, err := sim.RunTenantsFigure(scale)
	if err != nil {
		return err
	}
	if err := sim.RenderTenants(os.Stdout, r); err != nil {
		return err
	}
	fmt.Printf("# figure tenants wall time: %s\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// figureChurn runs the membership churn comparison: one node added to a
// live 3-node ring under cold rebalance, key-ordered warm handoff, and
// penalty-ordered warm handoff, rendered as the fig_churn TSV.
func figureChurn(scale float64) error {
	fmt.Printf("## Figure churn: cold rebalance vs penalty-ordered warm handoff (scale %.2f)\n", scale)
	start := time.Now()
	r, err := sim.RunChurnFigure(scale)
	if err != nil {
		return err
	}
	if err := sim.RenderChurn(os.Stdout, r); err != nil {
		return err
	}
	fmt.Printf("# figure churn wall time: %s\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// figure1 samples the penalty model over APP-distributed sizes and prints a
// (size, penalty) scatter — the reproduction of paper Fig. 1.
func figure1(doPlot bool) {
	cfg := workload.APP()
	fmt.Println("## Figure 1: miss penalty vs item size (APP penalty model sample)")
	var xs, ys []float64
	if !doPlot {
		fmt.Println("size_bytes\tpenalty_s")
	}
	for i := uint64(0); i < 20_000; i++ {
		h := kv.Mix64(i * 0x9e3779b97f4a7c15)
		size := cfg.SizeOf(h)
		pen := cfg.Penalty.Of(h, size)
		if doPlot {
			xs = append(xs, float64(size))
			ys = append(ys, pen)
		} else {
			fmt.Printf("%d\t%.4f\n", size, pen)
		}
	}
	if doPlot {
		plot.Scatter(os.Stdout, "miss penalty (s) vs item size (bytes), log-log", xs, ys)
	}
	fmt.Println()
}

// renderPlots draws each sub-plot group as two ASCII charts (hit ratio and
// service time), then the summary table.
func renderPlots(f *sim.Figure, res []*sim.Result) error {
	for gi, group := range f.Groups(res) {
		var series []*metrics.Series
		for _, r := range group {
			if r != nil {
				series = append(series, &r.Series)
			}
		}
		title := fmt.Sprintf("Fig %s group %d", f.ID, gi+1)
		if err := plot.Series(os.Stdout, title+" — hit ratio", plot.ColHitRatio, series); err != nil {
			return err
		}
		if err := plot.Series(os.Stdout, title+" — avg service time (s)", plot.ColAvgService, series); err != nil {
			return err
		}
	}
	return sim.WriteSummary(os.Stdout, res)
}
