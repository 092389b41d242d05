// Package obs provides the instrumentation behind the server's live
// observability surface: log-scale latency histograms that hot paths update
// without allocating, snapshot types that merge across shards and subtract
// into deltas for windowed reporting, and the tag-driven rendering of the
// stats structs whose live counter sets the hot paths bump (expose.go).
//
// One histogram serves the live server, the load generators and the offline
// simulator (decade buckets subdivided 8x over [min, min*10^decades)), so
// their quantiles are directly comparable. Writers race freely: Observe is a
// few atomic adds; readers take a Snapshot, which is consistent enough for
// monitoring (bucket counts, count, and sum are each atomically read, but not
// as one transaction).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// clockBase anchors MonoNanos. time.Since of a time carrying a monotonic
// reading reads only the monotonic clock, half the cost of time.Now.
var clockBase = time.Now()

// MonoNanos reads the monotonic clock: nanoseconds since the process
// started, for deadlines and expiries that are only compared with each
// other.
func MonoNanos() int64 { return int64(time.Since(clockBase)) }

// Hist is a concurrency-safe logarithmic histogram over positive values:
// decade buckets subdivided 8x. Observe performs no allocation.
type Hist struct {
	min     float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	// sumBits holds the float64 bit pattern of the running sum, updated by
	// CAS so Observe stays lock-free.
	sumBits atomic.Uint64
}

// NewHist covers [min, min*10^decades), with one underflow bucket at the
// bottom; values above the range land in the last bucket.
func NewHist(min float64, decades int) *Hist {
	return &Hist{min: min, buckets: make([]atomic.Uint64, decades*8+1)}
}

// bucketOf returns the bucket index for v.
func (h *Hist) bucketOf(v float64) int {
	if !(v > h.min) { // also catches NaN
		return 0
	}
	r := math.Log10(v/h.min) * 8
	// Compare before converting: int(r) on a huge or infinite r overflows.
	if r >= float64(len(h.buckets)-2) {
		return len(h.buckets) - 1
	}
	return int(r) + 1
}

// Observe records one value.
func (h *Hist) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value v at the cost of one:
// one bucket lookup and one update each of bucket, count and sum.
func (h *Hist) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.buckets[h.bucketOf(v)].Add(n)
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + add)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Snapshot returns a point-in-time copy of the histogram.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Min:     h.min,
		Buckets: make([]uint64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable copy of a Hist, the unit of merging (across
// shards) and subtraction (into per-window deltas). In JSON it is its
// Summary; the full curve rides on /metrics (PromWriter.Histogram), so a
// decoded snapshot keeps Count and Mean and has no quantiles.
type HistSnapshot struct {
	Min     float64
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// Summary is a histogram reduced to the points reports print and /statsz
// carries: all finite, zero when the histogram is empty.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Summary reduces the snapshot.
func (s HistSnapshot) Summary() Summary {
	return Summary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// MarshalJSON renders the snapshot as its Summary.
func (s HistSnapshot) MarshalJSON() ([]byte, error) { return json.Marshal(s.Summary()) }

// UnmarshalJSON reads a Summary back: the count and the mean survive the
// trip, the buckets do not (Quantile of the result is 0).
func (s *HistSnapshot) UnmarshalJSON(b []byte) error {
	var sum Summary
	if err := json.Unmarshal(b, &sum); err != nil {
		return err
	}
	*s = HistSnapshot{Count: sum.Count, Sum: sum.Mean * float64(sum.Count)}
	return nil
}

// String formats count/mean/p50/p99 on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4fs p50<=%.4fs p99<=%.4fs", s.Count, s.Mean, s.P50, s.P99)
}

// UpperBound returns the inclusive upper edge of bucket i: Min for the
// underflow bucket, Min*10^(i/8) above it. The last bucket also absorbs
// values beyond the range, so treat its edge as +Inf when rendering.
func (s HistSnapshot) UpperBound(i int) float64 {
	if i == 0 {
		return s.Min
	}
	return s.Min * math.Pow(10, float64(i)/8)
}

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile from bucket edges
// (0 when empty).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum > target {
			return s.UpperBound(i)
		}
	}
	return s.UpperBound(len(s.Buckets) - 1)
}

// Merge folds other into s (shard fan-in); both must share Min and span.
func (s *HistSnapshot) Merge(other HistSnapshot) error {
	if other.Min != s.Min || len(other.Buckets) != len(s.Buckets) {
		return fmt.Errorf("obs: merging incompatible histograms")
	}
	for i, c := range other.Buckets {
		s.Buckets[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
	return nil
}

// Delta returns s minus prev, the histogram of values observed between the
// two snapshots. prev must be an earlier snapshot of the same histogram.
func (s HistSnapshot) Delta(prev HistSnapshot) (HistSnapshot, error) {
	if prev.Min != s.Min || len(prev.Buckets) != len(s.Buckets) {
		return HistSnapshot{}, fmt.Errorf("obs: delta of incompatible histograms")
	}
	d := HistSnapshot{
		Min:     s.Min,
		Buckets: make([]uint64, len(s.Buckets)),
		Count:   s.Count - prev.Count,
		Sum:     s.Sum - prev.Sum,
	}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return d, nil
}

// ---- Prometheus text exposition ----

// PromWriter renders metrics in the Prometheus text format (version 0.0.4).
// Errors stick: check Err once after writing everything.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header writes the HELP/TYPE preamble; typ is "counter", "gauge", or
// "histogram". Call once per metric name, before its samples.
func (p *PromWriter) Header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Value writes one sample. labels is the pre-formatted inner label list
// (`class="3",sub="1"`) or empty.
func (p *PromWriter) Value(name, labels string, v float64) {
	if labels == "" {
		p.printf("%s %s\n", name, formatFloat(v))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, formatFloat(v))
}

// Counter writes an unlabeled counter with its header.
func (p *PromWriter) Counter(name, help string, v uint64) {
	p.Header(name, help, "counter")
	p.Value(name, "", float64(v))
}

// Gauge writes an unlabeled gauge with its header.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Header(name, help, "gauge")
	p.Value(name, "", v)
}

// Histogram writes one labeled histogram series (cumulative `le` buckets,
// sum, count). Write the Header (type "histogram") once before the first
// series of the name.
func (p *PromWriter) Histogram(name, labels string, s HistSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		le := formatFloat(s.UpperBound(i))
		if i == len(s.Buckets)-1 {
			le = "+Inf" // the top bucket absorbs out-of-range values
		}
		p.printf("%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	p.Value(name+"_sum", labels, s.Sum)
	p.printf("%s_count", name)
	if labels != "" {
		p.printf("{%s}", labels)
	}
	p.printf(" %d\n", s.Count)
}

// formatFloat renders a sample value; Prometheus accepts "NaN" and "+Inf".
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
