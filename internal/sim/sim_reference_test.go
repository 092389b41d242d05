package sim

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/metrics"
	"pamakv/internal/obs"
	"pamakv/internal/trace"
	"pamakv/internal/workload"
)

// burstStream delivers S, with Inject spliced in once At requests of S have
// been delivered; an At past the end of S never fires.
type burstStream struct {
	S         trace.Stream
	At        uint64
	Inject    trace.Stream
	delivered uint64
	bursting  bool
	done      bool
}

func (b *burstStream) Next() (trace.Request, error) {
	if !b.done && !b.bursting && b.delivered == b.At {
		b.bursting = true
	}
	if b.bursting {
		r, err := b.Inject.Next()
		if err == nil {
			return r, nil
		}
		if !errors.Is(err, io.EOF) {
			return trace.Request{}, err
		}
		b.bursting, b.done = false, true
	}
	r, err := b.S.Next()
	if err == nil {
		b.delivered++
	}
	return r, err
}

// runReference is the per-spec runner RunMatrix replaced: it generates,
// keys and prices the stream itself, once per repeat, and serves each
// request with its own switch.
func runReference(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	c, err := newEngine(spec)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec}
	res.Series.Name = spec.Name
	res.SlabSeries.Name = spec.Name
	svcHist := obs.NewHist(0.0001, 6)

	model := spec.Workload.Penalty
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
		gen, err := workload.New(spec.Workload)
		if err != nil {
			return nil, err
		}
		var stream trace.Stream = &trace.Limit{S: gen, N: spec.Requests}
		if spec.Burst != nil && rep == 0 {
			b := workload.MakeBurst(workload.BurstConfig{
				TotalBytes: int64(spec.Burst.FracOfCache * float64(spec.CacheBytes)),
				Classes:    spec.Burst.Classes,
				BaseSize:   spec.Workload.BaseSize,
				Seed:       spec.Workload.Seed,
			})
			stream = &burstStream{S: stream, At: spec.Burst.At, Inject: &trace.SliceStream{Reqs: b}}
		}
		for {
			r, err := stream.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			key := kv.KeyString(r.Key)
			size := int(r.Size)
			switch r.Op {
			case kv.Get:
				pen := model.Of(kv.HashString(key), size)
				_, _, hit := c.Get(key, size, pen, nil)
				svc := spec.HitTime
				if !hit {
					svc = pen
					res.MissPenalty += pen
					if err := c.Set(key, size, pen, 0, nil); err != nil && !ignorableSet(err) {
						return nil, err
					}
				}
				win.Add(hit, svc)
				svcHist.Observe(svc)
				gets++
				if gets%spec.MetricsWindow == 0 {
					snapshot()
				}
			case kv.Set:
				pen := model.Of(kv.HashString(key), size)
				if err := c.Set(key, size, pen, 0, nil); err != nil && !ignorableSet(err) {
					return nil, err
				}
			case kv.Delete:
				c.Delete(key)
			}
		}
	}
	if win.Gets > 0 {
		snapshot()
	}
	if eng, ok := c.(*cache.Cache); ok {
		res.Items = eng.Items()
	}
	res.Stats = c.Stats()
	res.ServiceHist = svcHist.Snapshot()
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("sim: post-run invariant violation: %w", err)
	}
	return res, nil
}

// TestRunMatrixMatchesReference replays a matrix that mixes two workloads,
// a gdsf arm, repeats, subclass sampling and bursts of different sizes and
// positions, and wants every result equal to the per-spec reference's.
func TestRunMatrixMatchesReference(t *testing.T) {
	app := workload.APP()
	app.Keys = 1 << 14
	app.ClassWeights = app.ClassWeights[:10]
	named := func(name string, s Spec) Spec {
		s.Name = name
		return s
	}
	burst := func(s Spec, at uint64, cacheBytes int64) Spec {
		s.CacheBytes = cacheBytes
		s.Burst = &BurstSpec{At: at, FracOfCache: 0.10, Classes: []int{2, 3, 4}}
		return s
	}
	gdsf := tinySpec("gdsf")
	gdsf.CacheBytes = 2 << 20
	repeats := tinySpec("memcached")
	repeats.Workload, repeats.CacheBytes, repeats.Repeats = app, 16<<20, 2
	sampled := tinySpec("pama")
	sampled.SampleSubClass = 0
	appPAMA := tinySpec("pama")
	appPAMA.Workload, appPAMA.CacheBytes = app, 16<<20
	reqs := tinySpec("psa").Requests
	burstRepeats := burst(tinySpec("pama"), 20_000, 8<<20)
	burstRepeats.Repeats = 2

	specs := []Spec{
		named("memcached", tinySpec("memcached")),
		named("pama", tinySpec("pama")),
		named("gdsf", gdsf),
		named("app/memcached/x2", repeats),
		named("pama/sampled", sampled),
		named("app/pama", appPAMA),
		named("psa/burst/8MiB", burst(tinySpec("psa"), 20_000, 8<<20)),
		named("psa/burst/16MiB", burst(tinySpec("psa"), 20_000, 16<<20)),
		named("pama/burst/8MiB", burst(tinySpec("pama"), 20_000, 8<<20)),
		named("psa/burst@0", burst(tinySpec("psa"), 0, 8<<20)),
		named("psa/burst@end", burst(tinySpec("psa"), reqs, 8<<20)),
		named("psa/burst@beyond", burst(tinySpec("psa"), reqs+1, 8<<20)),
		named("pama/burst/x2", burstRepeats),
		named("psa", tinySpec("psa")),
	}
	if sameStream(specs[6].withDefaults(), specs[7].withDefaults()) {
		t.Fatal("bursts of different byte totals share a stream")
	}
	if !sameStream(specs[6].withDefaults(), specs[8].withDefaults()) ||
		!sameStream(specs[3].withDefaults(), specs[5].withDefaults()) {
		t.Fatal("arms that replay the same requests, under other policies or repeats, do not share a stream")
	}
	got, err := RunMatrix(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		want, err := runReference(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		g := got[i]
		if g.Spec.Name != spec.Name {
			t.Fatalf("result %d is %s, want %s", i, g.Spec.Name, spec.Name)
		}
		for _, f := range []struct {
			what      string
			got, want any
		}{
			{"Series", g.Series, want.Series},
			{"SlabSeries", g.SlabSeries, want.SlabSeries},
			{"Stats", g.Stats, want.Stats},
			{"ServiceHist", g.ServiceHist, want.ServiceHist},
			{"MissPenalty", g.MissPenalty, want.MissPenalty},
			{"Items", g.Items, want.Items},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: %s differs from the reference:\n got %+v\nwant %+v", spec.Name, f.what, f.got, f.want)
			}
		}
	}
	// The burst fires at the end of the stream, and not past it.
	plain, end, beyond := got[13], got[10], got[11]
	if end.Stats.Gets <= plain.Stats.Gets || beyond.Stats != plain.Stats {
		t.Errorf("gets: burst at the end %d, past the end %d, no burst %d; want more, equal",
			end.Stats.Gets, beyond.Stats.Gets, plain.Stats.Gets)
	}
}
