// Command pama-stats analyzes a trace file the way the Facebook workload
// study (Atikoglu et al., SIGMETRICS 2012 — the paper's trace source)
// characterizes its workloads: operation mix, key popularity concentration,
// item-size distribution by slab class, the penalty profile the model
// implies, and a reuse-distance (stack-distance) profile that shows how
// much cache the workload can actually use.
//
// With -live it instead attaches to a running pama-server's admin endpoint
// (see pama-server -admin-addr) and renders one windowed row per polling
// interval from /statsz deltas — the live counterpart of the simulator's
// windowed TSV.
//
// Usage:
//
//	pama-tracegen -workload app -n 1000000 -out app.trace
//	pama-stats -trace app.trace
//	pama-stats -live 127.0.0.1:11212 -interval 2s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"pamakv/internal/kv"
	"pamakv/internal/mrc"
	"pamakv/internal/obs"
	"pamakv/internal/penalty"
	"pamakv/internal/trace"
	"pamakv/internal/workload"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (binary, .csv, optionally .gz)")
	topN := flag.Int("top", 10, "how many hottest keys to list")
	depth := flag.Int("depth", 64, "reuse-distance profile depth, in 1 MiB slab equivalents")
	fit := flag.Bool("fit", false, "additionally fit a synthetic workload.Config to the trace")
	live := flag.String("live", "", "poll a running server's admin /statsz at this address instead of reading a trace")
	interval := flag.Duration("interval", 2*time.Second, "polling interval in -live mode")
	samples := flag.Int("samples", 0, "stop -live mode after this many windows (0 = until interrupted)")
	flag.Parse()
	var err error
	if *live != "" {
		err = runLive(os.Stdout, *live, *interval, *samples)
	} else {
		err = run(os.Stdout, *tracePath, *topN, *depth, *fit)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pama-stats:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, tracePath string, topN, depth int, fit bool) error {
	if tracePath == "" {
		return errors.New("-trace is required")
	}
	stream, closer, err := trace.OpenFile(tracePath)
	if err != nil {
		return err
	}
	defer closer.Close()

	geom := kv.DefaultGeometry()
	model := penalty.Default()

	var total uint64
	ops := map[kv.Op]uint64{}
	keyCount := map[uint64]uint64{}
	classReqs := make([]uint64, geom.NumClasses)
	classBytes := make([]uint64, geom.NumClasses)
	penHist := obs.NewHist(0.001, 4)
	var sizeSum, sizeMax uint64
	// Reuse distances in bytes-approximating buckets: one shared tracker
	// over item counts scaled by mean size would be wrong per class, so
	// profile in item-granularity with a synthetic "slab" of 4096 items.
	reuse := mrc.NewTracker(4096, depth)

	for {
		r, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		total++
		ops[r.Op]++
		keyCount[r.Key]++
		size := int(r.Size)
		if c := geom.ClassFor(size); c >= 0 {
			classReqs[c]++
			classBytes[c] += uint64(size)
		}
		sizeSum += uint64(r.Size)
		if uint64(r.Size) > sizeMax {
			sizeMax = uint64(r.Size)
		}
		key := kv.KeyString(r.Key)
		h := kv.HashString(key)
		penHist.Observe(model.Of(h, size))
		if r.Op != kv.Delete {
			reuse.Access(key, h)
		}
	}
	if total == 0 {
		return errors.New("trace is empty")
	}

	fmt.Fprintf(w, "trace %s: %d requests, %d distinct keys\n", tracePath, total, len(keyCount))
	fmt.Fprintf(w, "ops: get=%.3f set=%.3f delete=%.3f\n",
		frac(ops[kv.Get], total), frac(ops[kv.Set], total), frac(ops[kv.Delete], total))
	fmt.Fprintf(w, "item size: mean %.0f B, max %d B\n", float64(sizeSum)/float64(total), sizeMax)

	fmt.Fprintln(w, "\nrequest share by slab class:")
	for c := 0; c < geom.NumClasses; c++ {
		if classReqs[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  class %2d (<=%7d B): %6.3f of requests, %6.1f MiB touched\n",
			c, geom.SlotSize(c), frac(classReqs[c], total), float64(classBytes[c])/(1<<20))
	}

	type kc struct {
		key uint64
		n   uint64
	}
	hot := make([]kc, 0, len(keyCount))
	for k, n := range keyCount {
		hot = append(hot, kc{k, n})
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].n > hot[j].n })
	if topN > len(hot) {
		topN = len(hot)
	}
	var topShare uint64
	fmt.Fprintf(w, "\ntop %d keys:\n", topN)
	for i := 0; i < topN; i++ {
		topShare += hot[i].n
		fmt.Fprintf(w, "  key %-12d %8d requests (%.4f)\n", hot[i].key, hot[i].n, frac(hot[i].n, total))
	}
	fmt.Fprintf(w, "  together: %.3f of all requests\n", frac(topShare, total))
	single := 0
	for _, e := range hot {
		if e.n == 1 {
			single++
		}
	}
	fmt.Fprintf(w, "single-access keys: %d (%.3f of keys)\n", single, frac(uint64(single), uint64(len(hot))))

	fmt.Fprintf(w, "\nmodel-implied miss penalties: %s\n", penHist.Snapshot().Summary())

	fmt.Fprintln(w, "\nreuse-distance profile (cumulative hit ratio by working-set depth):")
	curve := reuse.HitCurve()
	finite := curve[len(curve)-1]
	for _, k := range []int{1, 2, 4, 8, 16, 32, depth} {
		if k > reuse.Depth() {
			break
		}
		fmt.Fprintf(w, "  depth %3d x4096 items: %.3f\n", k, curve[k]/float64(total))
	}
	fmt.Fprintf(w, "  beyond profile or first touch: %.3f\n",
		(float64(total)-finite)/float64(total))

	if fit {
		f, closer2, err := trace.OpenFile(tracePath)
		if err != nil {
			return err
		}
		defer closer2.Close()
		cfg, err := workload.FitConfig(f, workload.ETC())
		if err != nil {
			return fmt.Errorf("fitting: %w", err)
		}
		fmt.Fprintln(w, "\nfitted workload.Config (drive the simulator with it):")
		fmt.Fprintf(w, "  Keys:     %d\n", cfg.Keys)
		fmt.Fprintf(w, "  ZipfS:    %.3f\n", cfg.ZipfS)
		fmt.Fprintf(w, "  ColdFrac: %.4f  SetFrac: %.4f  DelFrac: %.4f\n",
			cfg.ColdFrac, cfg.SetFrac, cfg.DelFrac)
		fmt.Fprintf(w, "  ClassWeights: %.4v\n", cfg.ClassWeights)
	}
	return nil
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
