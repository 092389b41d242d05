// Package backend simulates the back-end store (database / computation tier)
// that a key-value cache shields. On a cache miss the front end fetches the
// value from here, paying the item's miss penalty, and then SETs it back
// into the cache — the GET-miss → SET pattern the paper uses to estimate
// penalties from traces.
//
// Two modes share one type: accounting mode returns the penalty as a number
// (the simulator adds it to service time), and real-time mode additionally
// sleeps for a scaled-down fraction of it (the live network server uses
// this, so a demo actually feels the penalty difference).
package backend

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"pamakv/internal/bufpool"
	"pamakv/internal/kv"
	"pamakv/internal/obs"
	"pamakv/internal/penalty"
	"pamakv/internal/singleflight"
)

// ErrUnavailable reports an injected back-end failure (see Faults). Callers
// treat it like a transient database outage: retry, degrade, or surface a
// miss.
var ErrUnavailable = errors.New("backend: unavailable")

// Faults configures failure injection on FetchErr, for resilience testing of
// the read-through path. The decision stream is derived deterministically
// from Seed and the fetch sequence number, so a run is reproducible and safe
// for concurrent use without locks.
type Faults struct {
	// ErrRate is the probability in [0,1] that a fetch fails with
	// ErrUnavailable (after any injected latency).
	ErrRate float64
	// SpikeRate is the probability in [0,1] that a fetch sleeps an extra
	// SpikeSleep before completing — a latency spike.
	SpikeRate float64
	// SpikeSleep is the extra wall-clock latency of one spike.
	SpikeSleep time.Duration
	// Seed derives the fault decision stream; two stores with equal Seed
	// and traffic inject identical faults.
	Seed uint64
}

// enabled reports whether any fault class is active.
func (f *Faults) enabled() bool {
	return f != nil && (f.ErrRate > 0 || (f.SpikeRate > 0 && f.SpikeSleep > 0))
}

// Sizer reports the canonical value size in bytes for a key hash; workloads
// provide it so the backend regenerates the same value a trace would have
// SET. A nil Sizer defaults to 100-byte values.
type Sizer func(keyHash uint64) int

// Store is a simulated back end.
type Store struct {
	model penalty.Model
	sizer Sizer
	// sleepScale > 0 makes Fetch sleep penalty*sleepScale wall-clock time.
	sleepScale float64

	fetches atomic.Uint64
	// penaltyNanos accumulates total simulated penalty, in nanoseconds,
	// for diagnostics.
	penaltyNanos atomic.Uint64

	// faults, when set, injects failures into FetchErr (never into Fetch,
	// which simulators rely on to always succeed).
	faults   atomic.Pointer[Faults]
	errs     atomic.Uint64
	spikes   atomic.Uint64
	faultSeq atomic.Uint64

	// fetchLat records wall-clock FetchErr latency (the serving path's view
	// of the back end, spikes and sleeps included). Fetch, the simulators'
	// accounting-mode entry point, is deliberately not timed: its callers
	// measure simulated time, not wall time.
	fetchLat *obs.Hist

	// flight dedupes concurrent FetchSharedErr calls per key; sfShared
	// counts the calls answered by another caller's in-flight fetch.
	flight   singleflight.Group
	sfShared atomic.Uint64
}

// New returns an accounting-mode store.
func New(model penalty.Model, sizer Sizer) *Store {
	return &Store{model: model, sizer: sizer, fetchLat: obs.NewHist(1e-6, 7)}
}

// NewRealTime returns a store that sleeps penalty*scale per fetch. scale 1.0
// reproduces penalties in real time; demos use 0.01–0.1.
func NewRealTime(model penalty.Model, sizer Sizer, scale float64) *Store {
	return &Store{model: model, sizer: sizer, sleepScale: scale, fetchLat: obs.NewHist(1e-6, 7)}
}

// Fetch produces the value for key: its size, its miss penalty in seconds,
// and (when fill is true) a synthesized value body. It is safe for
// concurrent use.
func (s *Store) Fetch(key string, fill bool) (size int, pen float64, value []byte) {
	h := kv.HashString(key)
	size = 100
	if s.sizer != nil {
		size = s.sizer(h)
	}
	pen = s.model.Of(h, size)
	s.fetches.Add(1)
	s.penaltyNanos.Add(uint64(pen * 1e9))
	if s.sleepScale > 0 {
		time.Sleep(time.Duration(pen * s.sleepScale * float64(time.Second)))
	}
	if fill {
		value = Synthesize(h, size)
	}
	return size, pen, value
}

// SetFaults installs (or, with nil, clears) a fault-injection plan. It may
// be called while traffic is running; the change applies to subsequent
// FetchErr calls.
func (s *Store) SetFaults(f *Faults) {
	if f != nil {
		cp := *f
		s.faults.Store(&cp)
		return
	}
	s.faults.Store(nil)
}

// FetchErr is Fetch under the installed fault plan: a fetch may pay an
// injected latency spike and may fail with ErrUnavailable. Without a plan it
// behaves exactly like Fetch. Failed fetches still count toward Fetches()
// (the back end was hit; it just misbehaved) but do not accumulate penalty.
func (s *Store) FetchErr(key string, fill bool) (size int, pen float64, value []byte, err error) {
	if s.fetchLat != nil {
		start := time.Now()
		defer func() { s.fetchLat.Observe(time.Since(start).Seconds()) }()
	}
	f := s.faults.Load()
	if !f.enabled() {
		size, pen, value = s.Fetch(key, fill)
		return size, pen, value, nil
	}
	// Derive two independent uniform draws from the fetch sequence number,
	// so the fault stream is deterministic per Seed and lock-free.
	seq := s.faultSeq.Add(1)
	spikeDraw := uniform(kv.Mix64(f.Seed ^ seq))
	errDraw := uniform(kv.Mix64(f.Seed ^ seq ^ 0x9e3779b97f4a7c15))
	if f.SpikeRate > 0 && f.SpikeSleep > 0 && spikeDraw < f.SpikeRate {
		s.spikes.Add(1)
		time.Sleep(f.SpikeSleep)
	}
	if f.ErrRate > 0 && errDraw < f.ErrRate {
		s.fetches.Add(1)
		s.errs.Add(1)
		return 0, 0, nil, ErrUnavailable
	}
	size, pen, value = s.Fetch(key, fill)
	return size, pen, value, nil
}

// sharedResult carries one fetch's outcome across a singleflight.
type sharedResult struct {
	size int
	pen  float64
	body *[]byte // a bufpool buffer; nil when the leader did not fill
}

// FetchSharedErr is FetchErr behind a per-key singleflight: while a fetch
// for key is in flight, concurrent callers wait for its result instead of
// hitting the back end again, so N simultaneous misses of one key cost one
// backend call (and share one failure). This is the serving path's
// thundering-herd guard — a retry storm on a hot missing key amplifies into
// exactly one upstream fetch chain. The fill flag of the first (leading)
// caller decides whether the shared result carries a value body; the
// serving path always fills, so mixed callers are not a concern there.
// Sequential calls (no overlap) each fetch: deduplication is concurrency
// control, not caching.
//
// The body is synthesized into a bufpool buffer. A caller nobody joined gets
// that buffer back as owned and may bufpool.Put it once it has copied the
// bytes out (the serving path: into the engine and the response). A shared
// flight returns owned nil: the waiters hold one slice, immutable, the
// collector's.
func (s *Store) FetchSharedErr(key string, fill bool) (size int, pen float64, value []byte, owned *[]byte, err error) {
	v, err, shared := s.flight.Do(key, func() (any, error) {
		size, pen, _, err := s.FetchErr(key, false)
		if err != nil {
			return nil, err
		}
		r := sharedResult{size: size, pen: pen}
		if fill {
			r.body = bufpool.Get(max(size, 0))
			synthesizeInto(*r.body, kv.HashString(key))
		}
		return r, nil
	})
	if shared {
		s.sfShared.Add(1)
	}
	if err != nil {
		return 0, 0, nil, nil, err
	}
	r := v.(sharedResult)
	if r.body == nil {
		return r.size, r.pen, nil, nil, nil
	}
	if !shared {
		owned = r.body
	}
	return r.size, r.pen, *r.body, owned, nil
}

// SharedFetches returns how many FetchSharedErr calls coalesced with at
// least one concurrent caller onto a single backend fetch (the flight
// leader included, so 64 concurrent misses of one key count 64 here and 1
// in Fetches).
func (s *Store) SharedFetches() uint64 { return s.sfShared.Load() }

// uniform maps a mixed 64-bit value to [0,1).
func uniform(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// InjectedErrors returns the number of fetches failed by fault injection.
func (s *Store) InjectedErrors() uint64 { return s.errs.Load() }

// InjectedSpikes returns the number of fetches delayed by an injected
// latency spike.
func (s *Store) InjectedSpikes() uint64 { return s.spikes.Load() }

// Penalty returns the penalty for a key without fetching (used by replayers
// that know an item's size already).
func (s *Store) Penalty(key string, size int) float64 {
	return s.model.Of(kv.HashString(key), size)
}

// PenaltyOf returns the penalty a Fetch of key would pay, deriving the
// item's size from the sizer exactly as Fetch would — the cheap
// estimate-without-fetching entry point overload admission prices keys by.
func (s *Store) PenaltyOf(key string) float64 {
	h := kv.HashString(key)
	size := 100
	if s.sizer != nil {
		size = s.sizer(h)
	}
	return s.model.Of(h, size)
}

// FetchLatency snapshots the wall-clock latency histogram of FetchErr calls
// (failed attempts included — a slow failure is still latency the serving
// path paid). Zero-valued for a store that has served none.
func (s *Store) FetchLatency() obs.HistSnapshot {
	if s.fetchLat == nil {
		return obs.NewHist(1e-6, 7).Snapshot()
	}
	return s.fetchLat.Snapshot()
}

// Fetches returns the number of Fetch calls served.
func (s *Store) Fetches() uint64 { return s.fetches.Load() }

// TotalPenalty returns the accumulated simulated penalty in seconds.
func (s *Store) TotalPenalty() float64 {
	return float64(s.penaltyNanos.Load()) / 1e9
}

// Synthesize deterministically generates a value body of the given size from
// a key hash, so repeated fetches of one key return identical bytes.
func Synthesize(keyHash uint64, size int) []byte {
	if size <= 0 {
		return []byte{}
	}
	v := make([]byte, size)
	synthesizeInto(v, keyHash)
	return v
}

// synthesizeInto fills v with the body Synthesize(keyHash, len(v)) returns.
func synthesizeInto(v []byte, keyHash uint64) {
	x := keyHash
	i := 0
	for ; i+8 <= len(v); i += 8 {
		x = kv.Mix64(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	if i < len(v) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], kv.Mix64(x))
		copy(v[i:], tail[:])
	}
}
