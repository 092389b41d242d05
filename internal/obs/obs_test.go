package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pamakv/internal/metrics"
)

// liveSet is a counter set as the subsystems declare one: uint64s, in
// embedded structs and arrays too.
type liveSet struct {
	liveInner
	Gets  uint64
	BySub [3]uint64
}

type liveInner struct{ Conns uint64 }

func TestCounterMergeAcrossShards(t *testing.T) {
	// Shard-merge semantics: the group-level value is the sum of per-shard
	// loads, regardless of how increments were distributed.
	cases := []struct {
		name   string
		shards [][]uint64 // per-shard Add sequences
		want   uint64
	}{
		{"empty", [][]uint64{{}, {}}, 0},
		{"one-shard", [][]uint64{{1, 2, 3}}, 6},
		{"even-split", [][]uint64{{5, 5}, {10}, {0, 20}}, 40},
		{"skewed", [][]uint64{{1}, {}, {1 << 40}}, 1 + 1<<40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var total liveSet
			for _, adds := range tc.shards {
				shard := new(liveSet)
				for _, n := range adds {
					atomic.AddUint64(&shard.Gets, n)
					atomic.AddUint64(&shard.BySub[2], n)
				}
				Sum(&total, Load(shard))
			}
			if total.Gets != tc.want || total.BySub[2] != tc.want {
				t.Fatalf("merged counters = %d, %d, want %d", total.Gets, total.BySub[2], tc.want)
			}
		})
	}
}

func TestLoadCopiesEveryCounter(t *testing.T) {
	type withPrivate struct {
		liveSet
		shed [2]uint64
	}
	live := &withPrivate{liveSet{liveInner{1}, 2, [3]uint64{3, 4, 5}}, [2]uint64{6, 7}}
	if got := Load(live); got != *live {
		t.Fatalf("Load = %+v, want %+v", got, *live)
	}
	for _, bad := range []func(){
		func() { Load(&struct{ N int64 }{}) },
		func() { Load(&struct{ M map[string]uint64 }{}) },
		func() { Load(&struct{ H HistSnapshot }{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Load of a set with a non-uint64 field did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	// The layout every committed figure and printed quantile was made with:
	// decade buckets subdivided 8x, underflow in bucket 0, overflow in the
	// last.
	h := NewHist(0.001, 3) // [1ms, 1s), 25 buckets
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{0.0005, 0},
		{0.001, 0},        // exactly min -> underflow bucket
		{0.00101, 1},      // just above min
		{0.01, 9},         // exactly on a decade edge -> next bucket
		{0.1, 17},         // two decades, same edge rule
		{0.999, 24},       // just under the top
		{1.0, 24},         // at the top -> clamped to last
		{1e300, 24},       // far out of range -> last, no int overflow
		{math.Inf(1), 24}, // infinite -> last, no int overflow
		{math.NaN(), 0},   // NaN -> underflow bucket, not a panic
	}
	for _, tc := range cases {
		if got := h.bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every recorded value must land in a bucket whose UpperBound is >= it
	// (except the saturated last bucket).
	s := h.Snapshot()
	for _, v := range []float64{0.0011, 0.004, 0.03, 0.5} {
		i := h.bucketOf(v)
		if s.UpperBound(i) < v {
			t.Errorf("UpperBound(bucketOf(%v)) = %v < value", v, s.UpperBound(i))
		}
	}
}

// TestObserveNEqualsRepeatedObserve: ObserveN(v, n) must leave the histogram
// exactly where n calls of Observe(v) would — same bucket, same count — and
// the same sum up to the rounding of one multiplication against n additions.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	one, many := NewHist(1e-6, 7), NewHist(1e-6, 7)
	for _, tc := range []struct {
		v float64
		n uint64
	}{{3.7e-5, 32}, {0, 3}, {1e-6, 1}, {2.5e-3, 64}, {99, 2}, {5e-4, 0}} {
		many.ObserveN(tc.v, tc.n)
		for i := uint64(0); i < tc.n; i++ {
			one.Observe(tc.v)
		}
	}
	a, b := one.Snapshot(), many.Snapshot()
	if a.Count != b.Count || a.Count != 102 {
		t.Fatalf("counts %d vs %d, want 102", a.Count, b.Count)
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			t.Errorf("bucket %d: %d observed one by one, %d by ObserveN", i, a.Buckets[i], b.Buckets[i])
		}
	}
	if !(math.Abs(a.Sum-b.Sum) <= 1e-12*a.Sum) {
		t.Errorf("sums %v vs %v", a.Sum, b.Sum)
	}
}

// TestHistMatchesMetricsHistogram pins Hist to what metrics.Histogram, the
// simulator's histogram until the two were made one, reported for the same
// inputs: the service-time columns of the committed figures depend on it.
func TestHistMatchesMetricsHistogram(t *testing.T) {
	h := NewHist(0.0001, 5)
	for _, v := range []float64{0.00005, 0.0002, 0.0015, 0.0015, 0.02, 0.3, 4.4, 99} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count %d, want 8", s.Count)
	}
	if math.Abs(s.Mean()-12.965406250000001) > 1e-12 {
		t.Fatalf("mean %v", s.Mean())
	}
	for _, tc := range []struct {
		q    float64
		edge int // the quantile is the upper edge of this bucket
	}{{0, 0}, {0.25, 10}, {0.5, 19}, {0.9, 40}, {0.99, 40}, {1, 40}} {
		if got, want := s.Quantile(tc.q), s.UpperBound(tc.edge); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, want)
		}
	}
	if got := s.Summary().String(); got != "n=8 mean=12.9654s p50<=0.0237s p99<=10.0000s" {
		t.Errorf("Summary = %q", got)
	}
}

func TestHistQuantileAgainstExactValues(t *testing.T) {
	// 1000 uniform values in [1ms, 1s): the bucketed quantile must be an
	// upper bound of the exact order statistic and within one subdivision
	// (a factor of 10^(1/8) ≈ 1.33) of it.
	h := NewHist(0.001, 3)
	var exact []float64
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := 0.001 + 0.999*float64(x>>11)/(1<<53)
		exact = append(exact, v)
		h.Observe(v)
	}
	sort.Float64s(exact)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		want := exact[int(q*float64(len(exact)))]
		if got < want {
			t.Errorf("Quantile(%v) = %v below exact %v (must be an upper bound)", q, got, want)
		}
		if got > want*math.Pow(10, 1.0/8)*1.0001 {
			t.Errorf("Quantile(%v) = %v too far above exact %v", q, got, want)
		}
	}
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}

	// A bimodal sample: the quantiles must fall on the right mode.
	bi := NewHist(0.001, 4) // 1ms .. 10s
	bi.ObserveN(0.002, 90)
	bi.ObserveN(1.5, 10)
	bs := bi.Snapshot()
	if q := bs.Quantile(0.5); q > 0.01 {
		t.Errorf("bimodal p50 = %v, want ~2ms bound", q)
	}
	if q := bs.Quantile(0.95); q < 1.0 {
		t.Errorf("bimodal p95 = %v, want >=1s", q)
	}
	if m := bs.Mean(); math.Abs(m-(90*0.002+10*1.5)/100) > 1e-9 {
		t.Errorf("bimodal mean = %v", m)
	}

	// Edges: an empty histogram reports zeros; out-of-range values are
	// counted in the end buckets and Quantile(0) is the range's minimum.
	e := NewHist(0.001, 2)
	if es := e.Snapshot(); es.Quantile(0.5) != 0 || es.Mean() != 0 || es.Summary() != (Summary{}) {
		t.Error("empty histogram should report 0")
	}
	e.Observe(1e-9)
	e.Observe(1e9)
	if es := e.Snapshot(); es.Count != 2 || es.Quantile(0) != 0.001 {
		t.Errorf("after under- and overflow: count %d, Quantile(0) = %v", es.Count, es.Quantile(0))
	}
}

func TestSnapshotDeltaSemantics(t *testing.T) {
	h := NewHist(0.001, 2)
	h.Observe(0.002)
	h.Observe(0.05)
	before := h.Snapshot()
	h.Observe(0.002)
	h.Observe(0.09)
	h.Observe(0.09)
	after := h.Snapshot()

	d, err := after.Delta(before)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 3 {
		t.Fatalf("delta count = %d, want 3", d.Count)
	}
	if math.Abs(d.Sum-(0.002+0.09+0.09)) > 1e-12 {
		t.Fatalf("delta sum = %v", d.Sum)
	}
	var total uint64
	for _, c := range d.Buckets {
		total += c
	}
	if total != 3 {
		t.Fatalf("delta buckets sum to %d, want 3", total)
	}
	// A snapshot is immutable: the earlier one must be unaffected.
	if before.Count != 2 {
		t.Fatalf("before snapshot mutated: count %d", before.Count)
	}
	// Mismatched layouts must refuse to subtract or merge.
	other := NewHist(0.01, 2).Snapshot()
	if _, err := after.Delta(other); err == nil {
		t.Fatal("Delta across layouts succeeded")
	}
	if err := (&other).Merge(after); err == nil {
		t.Fatal("Merge across layouts succeeded")
	}
}

func TestSnapshotMergeAcrossShards(t *testing.T) {
	a, b := NewHist(0.001, 3), NewHist(0.001, 3)
	for _, v := range []float64{0.002, 0.004, 0.5} {
		a.Observe(v)
	}
	for _, v := range []float64{0.03, 0.03} {
		b.Observe(v)
	}
	merged := a.Snapshot()
	if err := merged.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if merged.Count != 5 {
		t.Fatalf("merged count = %d", merged.Count)
	}
	want := 0.002 + 0.004 + 0.5 + 0.03 + 0.03
	if math.Abs(merged.Sum-want) > 1e-12 {
		t.Fatalf("merged sum = %v, want %v", merged.Sum, want)
	}
}

func TestConcurrentWriters(t *testing.T) {
	// Race-detector test: many goroutines hammer one live counter set and
	// one histogram while a reader loads the set; totals must balance
	// exactly, and no load may see a counter go backwards.
	const workers, perWorker = 8, 5000
	c := new(liveSet)
	h := NewHist(1e-6, 7)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var prev liveSet
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := Load(c)
			if cur.Gets < prev.Gets || cur.BySub[1] < prev.BySub[1] {
				t.Errorf("counters went backwards: %+v after %+v", cur, prev)
				return
			}
			prev = cur
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				atomic.AddUint64(&c.Gets, 1)
				atomic.AddUint64(&c.BySub[1], 2)
				h.Observe(float64(seed*perWorker+i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := Load(c); got.Gets != workers*perWorker || got.BySub[1] != 2*workers*perWorker {
		t.Fatalf("counters = %d, %d, want %d, %d", got.Gets, got.BySub[1], workers*perWorker, 2*workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("buckets sum to %d, count says %d", bucketTotal, s.Count)
	}
}

func TestRecorderWindows(t *testing.T) {
	r := NewRecorder("live")
	r.Sample(0, 0, 0, nil) // baseline only
	if r.Len() != 0 {
		t.Fatalf("baseline sample recorded a point")
	}
	r.Sample(100, 80, 2.0, []int{3, 1})
	r.Sample(100, 80, 2.0, nil) // empty window: no traffic
	r.Sample(300, 130, 6.0, nil)
	s := r.Series()
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	p0, p1, p2 := s.Points[0], s.Points[1], s.Points[2]
	if p0.HitRatio != 0.8 || math.Abs(p0.AvgService-0.02) > 1e-12 || p0.GetsServed != 100 {
		t.Fatalf("window 0 = %+v", p0)
	}
	if len(p0.Slabs) != 2 {
		t.Fatalf("window 0 slabs missing: %+v", p0)
	}
	if !math.IsNaN(p1.HitRatio) || !math.IsNaN(p1.AvgService) {
		t.Fatalf("empty window must record NaN, got %+v", p1)
	}
	if math.Abs(p2.HitRatio-0.25) > 1e-12 || math.Abs(p2.AvgService-0.02) > 1e-12 {
		t.Fatalf("window 2 = %+v", p2)
	}
	// The NaN window must flow through the TSV emitter as "-", not "NaN".
	var sb strings.Builder
	if err := metrics.WriteTSV(&sb, []*metrics.Series{s}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Fatalf("TSV leaked NaN:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "-") {
		t.Fatalf("TSV did not mark the empty window:\n%s", sb.String())
	}
}

func TestPromWriterFormat(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("pamakv_gets_total", "GET requests served.", 42)
	p.Gauge("pamakv_items", "Resident items.", 7)
	h := NewHist(0.001, 1)
	h.Observe(0.002)
	h.Observe(0.5)
	p.Header("pamakv_req_seconds", "Request latency.", "histogram")
	p.Histogram("pamakv_req_seconds", `cmd="get"`, h.Snapshot())
	p.Histogram("pamakv_req_seconds", "", h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pamakv_gets_total counter",
		"pamakv_gets_total 42",
		"# TYPE pamakv_items gauge",
		"pamakv_items 7",
		"# TYPE pamakv_req_seconds histogram",
		`pamakv_req_seconds_bucket{cmd="get",le="0.001"} 0`,
		`pamakv_req_seconds_bucket{cmd="get",le="+Inf"} 2`,
		`pamakv_req_seconds_count{cmd="get"} 2`,
		`pamakv_req_seconds_bucket{le="+Inf"} 2`,
		"pamakv_req_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "{}") {
		t.Errorf("empty label braces leaked:\n%s", out)
	}
	// le buckets must be cumulative and non-decreasing.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `pamakv_req_seconds_bucket{cmd="get"`) {
			continue
		}
		var n uint64
		if _, err := fmtSscan(line[strings.LastIndex(line, " ")+1:], &n); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("buckets not cumulative at %q", line)
		}
		last = n
	}
}

// fmtSscan isolates the fmt dependency used only above.
func fmtSscan(s string, n *uint64) (int, error) {
	var v uint64
	var i int
	for i = 0; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		v = v*10 + uint64(s[i]-'0')
	}
	*n = v
	return i, nil
}
