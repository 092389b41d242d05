// Benchmarks regenerating every figure of the paper's evaluation at reduced
// scale (one testing.B bench per figure — run a single iteration of each to
// smoke the full experiment pipeline), plus engine micro-benchmarks. The
// full-scale figures come from cmd/pama-bench; EXPERIMENTS.md records their
// outputs against the paper.
package pamakv

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/sim"
	"pamakv/internal/workload"
)

// benchScale shrinks the figure experiments so a -bench=. sweep stays in
// seconds per figure; absolute numbers are meaningless at this scale — the
// figures for EXPERIMENTS.md come from cmd/pama-bench.
const benchScale = 0.01

func runFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := sim.FigureByID(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunMatrix(f.Specs, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Render(io.Discard, res); err != nil {
			b.Fatal(err)
		}
		var gets uint64
		for _, r := range res {
			gets += r.Stats.Gets
		}
		b.ReportMetric(float64(gets)/float64(b.Elapsed().Seconds()), "gets/s")
	}
}

// BenchmarkFig1PenaltyModel samples the miss-penalty model (paper Fig. 1's
// penalty-vs-size scatter).
func BenchmarkFig1PenaltyModel(b *testing.B) {
	cfg := workload.APP()
	var sink float64
	for i := 0; i < b.N; i++ {
		h := kv.Mix64(uint64(i) * 0x9e3779b97f4a7c15)
		sink += cfg.Penalty.Of(h, cfg.SizeOf(h))
	}
	_ = sink
}

// BenchmarkFig3Allocation regenerates the per-class slab allocation series
// under the four schemes (paper Fig. 3).
func BenchmarkFig3Allocation(b *testing.B) { runFigure(b, "3") }

// BenchmarkFig4Subclasses regenerates PAMA's per-subclass allocation series
// for Classes 0 and 8 (paper Fig. 4).
func BenchmarkFig4Subclasses(b *testing.B) { runFigure(b, "4") }

// BenchmarkFig5HitRatioETC and BenchmarkFig6ServiceTimeETC regenerate the
// ETC matrix (papers Figs. 5 and 6 share runs: hit ratio and service time
// of the same experiments).
func BenchmarkFig5HitRatioETC(b *testing.B) { runFigure(b, "5") }

// BenchmarkFig6ServiceTimeETC is the service-time view of the same ETC runs.
func BenchmarkFig6ServiceTimeETC(b *testing.B) { runFigure(b, "6") }

// BenchmarkFig7HitRatioAPP and BenchmarkFig8ServiceTimeAPP regenerate the
// APP matrix with the trace played twice (papers Figs. 7 and 8).
func BenchmarkFig7HitRatioAPP(b *testing.B) { runFigure(b, "7") }

// BenchmarkFig8ServiceTimeAPP is the service-time view of the same APP runs.
func BenchmarkFig8ServiceTimeAPP(b *testing.B) { runFigure(b, "8") }

// BenchmarkFig9Burst regenerates the cold-burst impact experiment (paper
// Fig. 9).
func BenchmarkFig9Burst(b *testing.B) { runFigure(b, "9") }

// BenchmarkFig10Sensitivity regenerates the m-sensitivity sweep (paper
// Fig. 10).
func BenchmarkFig10Sensitivity(b *testing.B) { runFigure(b, "10") }

// ---- Engine micro-benchmarks ----

func benchCache(b *testing.B, pol cache.Policy, tracker cache.TrackerKind) *cache.Cache {
	b.Helper()
	c, err := cache.New(cache.Config{
		CacheBytes: 64 << 20,
		WindowLen:  100_000,
		Tracker:    tracker,
	}, pol)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkEngineGetHit measures the hit path under PAMA with exact
// tracking.
func BenchmarkEngineGetHit(b *testing.B) {
	c := benchCache(b, core.New(core.DefaultConfig()), cache.TrackerExact)
	const n = 1 << 14
	keys := make([]string, n)
	for i := range keys {
		keys[i] = kv.KeyString(uint64(i))
		c.Set(keys[i], 100, 0.01, 0, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i&(n-1)], 0, 0, nil)
	}
}

// BenchmarkEngineServedGetHit measures a GET hit as a server serves it, in
// the shape of the benchmark's get_hot workload: two value-storing PAMA
// engines of 32 MiB each hold 5 000 9-byte keys apiece with 100-byte values,
// and uniform random bursts of 32 keys are each prefetched (PrefetchHashes,
// once per engine) and then looked up one by one (LookupHash), the value
// copied out. BenchmarkEngineGetHit above is metadata-only and walks its keys
// in order; this one pays for resolving record ids in the value pages and for
// the cache misses of a random walk over them. One op is one GET.
func BenchmarkEngineServedGetHit(b *testing.B) {
	const engines, perEngine, burst = 2, 5000, 32
	var cs [engines]*cache.Cache
	for e := range cs {
		c, err := cache.New(cache.Config{CacheBytes: 32 << 20, StoreValues: true, WindowLen: 100_000},
			core.New(core.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		cs[e] = c
	}
	keys := make([]string, engines*perEngine)
	hashes := make([]uint64, len(keys))
	value := make([]byte, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
		hashes[i] = kv.HashString(keys[i])
		if err := cs[i%engines].Set(keys[i], 0, 0.01, 0, value); err != nil {
			b.Fatal(err)
		}
	}
	order := make([]int32, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range order {
		order[i] = int32(rng.Intn(len(keys)))
	}
	var hs [engines][]uint64
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for done, at := 0, 0; done < b.N; done += burst {
		picks := order[at : at+min(burst, b.N-done)]
		if at += burst; at+burst > len(order) {
			at = 0
		}
		for e := range hs {
			hs[e] = hs[e][:0]
		}
		for _, k := range picks {
			hs[k%engines] = append(hs[k%engines], hashes[k])
		}
		for e, c := range cs {
			c.PrefetchHashes(hs[e])
		}
		for _, k := range picks {
			var hit bool
			if buf, _, _, hit = cs[k%engines].LookupHash(hashes[k], keys[k], 0, 0, buf[:0]); !hit {
				b.Fatalf("%s missed", keys[k])
			}
		}
	}
}

// BenchmarkEngineSetChurn measures steady-state insert+evict throughput.
func BenchmarkEngineSetChurn(b *testing.B) {
	c := benchCache(b, core.New(core.DefaultConfig()), cache.TrackerExact)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(kv.KeyString(uint64(i)), 200, 0.01, 0, nil)
	}
}

// BenchmarkEngineSetEvict measures a value-storing SET into a full cache:
// every store inserts a long-evicted key into one of four slab classes and
// evicts to make room (the configuration TestEngineSetEvictAllocs pins at 0
// allocs/op). BenchmarkEngineSetChurn above is its metadata-only twin.
func BenchmarkEngineSetEvict(b *testing.B) {
	c, keys, body := evictingEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		c.Set(k, len(k)+len(body(i))+56, 0.01, 0, body(i))
	}
}

// BenchmarkEngineMixed measures a 90/10 get/set mix over a working set
// larger than the cache.
func BenchmarkEngineMixed(b *testing.B) {
	for _, tk := range []struct {
		name string
		kind cache.TrackerKind
	}{{"exact", cache.TrackerExact}, {"bloom", cache.TrackerBloom}} {
		b.Run(tk.name, func(b *testing.B) {
			c := benchCache(b, core.New(core.DefaultConfig()), tk.kind)
			wl := workload.ETC()
			wl.Keys = 1 << 16
			gen, err := workload.New(wl)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _ := gen.Next()
				key := kv.KeyString(r.Key)
				if r.Op == kv.Get {
					if _, _, hit := c.Get(key, int(r.Size), 0.01, nil); !hit {
						c.Set(key, int(r.Size), 0.01, 0, nil)
					}
				} else {
					c.Set(key, int(r.Size), 0.01, 0, nil)
				}
			}
		})
	}
}
