// Command pama-replay replays a trace file against a cache configuration
// and reports hit ratio and service time, windowed and total.
//
// Penalty source: with -penalty model (default), each key's miss penalty
// comes from the synthetic penalty model, matching what pama-tracegen's
// workloads assume. With -penalty estimate, penalties are estimated from
// the trace itself via the paper's GET-miss→SET gap rule (§IV) — use this
// for traces converted from real systems where the client's refill SETs and
// timestamps are present.
//
// Usage:
//
//	pama-tracegen -workload etc -n 2000000 -out etc.trace
//	pama-replay -trace etc.trace -policy pama -cache 256
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/metrics"
	"pamakv/internal/obs"
	"pamakv/internal/penalty"
	"pamakv/internal/sim"
	"pamakv/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (binary, .csv, optionally .gz)")
	policyKind := flag.String("policy", "pama", "policy: "+strings.Join(sim.SlabKinds(), ", "))
	cacheMiB := flag.Int64("cache", 256, "cache size in MiB")
	window := flag.Uint64("window", 200_000, "GETs per reported window")
	penaltySource := flag.String("penalty", "model", "penalty source: model or estimate")
	hitTime := flag.Float64("hit-time", penalty.DefaultHitTime, "service time of a hit, seconds")
	flag.Parse()

	if err := run(*tracePath, *policyKind, *cacheMiB, *window, *penaltySource, *hitTime); err != nil {
		fmt.Fprintln(os.Stderr, "pama-replay:", err)
		os.Exit(1)
	}
}

func run(tracePath, policyKind string, cacheMiB int64, window uint64, penaltySource string, hitTime float64) error {
	if tracePath == "" {
		return errors.New("-trace is required")
	}
	stream, closer, err := trace.OpenFile(tracePath)
	if err != nil {
		return err
	}
	defer closer.Close()

	pol, err := sim.PolicySpec{Kind: policyKind}.Build()
	if err != nil {
		return err
	}
	if pol == nil {
		return fmt.Errorf("policy %q is a simulator-only engine, not a slab policy", policyKind)
	}
	c, err := cache.New(cache.Config{CacheBytes: cacheMiB << 20, WindowLen: window / 2}, pol)
	if err != nil {
		return err
	}

	model := penalty.Default()
	est := trace.NewPenaltyEstimator()
	useEstimator := false
	switch penaltySource {
	case "model":
	case "estimate":
		useEstimator = true
	default:
		return fmt.Errorf("unknown penalty source %q", penaltySource)
	}
	penaltyOf := func(r trace.Request, keyHash uint64) float64 {
		if useEstimator {
			return est.Estimate(r.Key)
		}
		return model.Of(keyHash, int(r.Size))
	}

	var win metrics.Window
	var series metrics.Series
	series.Name = policyKind
	var gets uint64
	hist := obs.NewHist(0.0001, 6)

	fmt.Printf("# replaying %s under %s, cache %d MiB\n", tracePath, policyKind, cacheMiB)
	fmt.Println("gets\thit_ratio\tavg_service_s")
	for {
		r, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		key := kv.KeyString(r.Key)
		switch r.Op {
		case kv.Get:
			h := kv.HashString(key)
			pen := penaltyOf(r, h)
			_, _, hit := c.Get(key, int(r.Size), pen, nil)
			svc := hitTime
			if !hit {
				svc = pen
				if useEstimator {
					est.ObserveGetMiss(r.Key, r.Time)
					// The refill SET is expected to appear in the
					// trace itself in estimate mode; in model mode
					// the replayer issues it, as the paper's
					// clients do.
				} else if err := c.Set(key, int(r.Size), pen, 0, nil); err != nil &&
					!errors.Is(err, cache.ErrNoSpace) && !errors.Is(err, cache.ErrTooLarge) {
					return err
				}
			}
			win.Add(hit, svc)
			hist.Observe(svc)
			gets++
			if gets%window == 0 {
				fmt.Printf("%d\t%.4f\t%.6f\n", gets, win.HitRatio(), win.AvgService())
				series.Append(metrics.Point{GetsServed: gets, HitRatio: win.HitRatio(), AvgService: win.AvgService()})
				win.Reset()
			}
		case kv.Set:
			h := kv.HashString(key)
			if useEstimator {
				est.ObserveSet(r.Key, r.Time)
			}
			pen := penaltyOf(r, h)
			if err := c.Set(key, int(r.Size), pen, 0, nil); err != nil &&
				!errors.Is(err, cache.ErrNoSpace) && !errors.Is(err, cache.ErrTooLarge) {
				return err
			}
		case kv.Delete:
			c.Delete(key)
		}
	}
	st := c.Stats()
	fmt.Printf("# totals: gets=%d hits=%d misses=%d evictions=%d ghost_hits=%d\n",
		st.Gets, st.Hits, st.Misses, st.Evictions, st.GhostHits)
	fmt.Printf("# mean hit ratio %.4f, mean service %.6fs, service %s\n",
		series.MeanHitRatio(), series.MeanAvgService(), hist.Snapshot().Summary())
	return nil
}
