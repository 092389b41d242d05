package main

// Exact-sample latency recording. The repo's histograms have buckets a third
// wide (10^(1/8)), which cannot resolve a 10% change; here every round trip
// is kept as a uint32 of nanoseconds and percentiles are read off the sorted
// samples. No pamakv/internal import (see gen.go).

import (
	"math"
	"slices"
	"time"
)

// recorder holds one connection's round trips, cut into one-second slices by
// completion time. It is filled by one goroutine and read after it stops.
type recorder struct {
	ns      []uint32 // round-trip times in arrival order
	cut     []int    // cut[i]: samples recorded before second i+1 began
	dropped int      // samples beyond the preallocated capacity
}

func newRecorder(samples, seconds int) *recorder {
	return &recorder{
		ns:  make([]uint32, 0, samples),
		cut: make([]int, 0, seconds+8),
	}
}

// add records one round trip that completed at offset since the phase began.
func (r *recorder) add(since, rtt time.Duration) {
	sec := int(since / time.Second)
	for len(r.cut) <= sec {
		r.cut = append(r.cut, len(r.ns))
	}
	if len(r.ns) == cap(r.ns) {
		r.dropped++
		return
	}
	v := rtt.Nanoseconds()
	if v > math.MaxUint32 {
		v = math.MaxUint32
	}
	r.ns = append(r.ns, uint32(v))
	for i := sec; i < len(r.cut); i++ {
		r.cut[i] = len(r.ns)
	}
}

// slice returns the samples of second i.
func (r *recorder) slice(i int) []uint32 {
	if i >= len(r.cut) {
		return nil
	}
	lo := 0
	if i > 0 {
		lo = r.cut[i-1]
	}
	return r.ns[lo:r.cut[i]]
}

// sliceLat is what the round trips of one slice reduce to: exact
// percentiles, read off the sorted samples.
type sliceLat struct {
	p50us, p99us, meanMS float64
	samples              int
}

// sliceLatency reduces second i of all connections.
func sliceLatency(recs []*recorder, i int) sliceLat {
	var sl []uint32
	for _, r := range recs {
		sl = append(sl, r.slice(i)...)
	}
	if len(sl) == 0 {
		return sliceLat{}
	}
	slices.Sort(sl)
	sum := 0.0
	for _, v := range sl {
		sum += float64(v)
	}
	return sliceLat{
		p50us:   float64(quantile(sl, 0.5)) / 1e3,
		p99us:   float64(quantile(sl, 0.99)) / 1e3,
		meanMS:  sum / float64(len(sl)) / 1e6,
		samples: len(sl),
	}
}

// quantile reads the q-quantile off sorted samples (nearest rank).
func quantile(sorted []uint32, q float64) uint32 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
