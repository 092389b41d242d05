package backend

import (
	"bytes"
	"testing"
	"time"

	"pamakv/internal/kv"
	"pamakv/internal/penalty"
)

func TestFetchDeterministic(t *testing.T) {
	s := New(penalty.Default(), func(uint64) int { return 256 })
	sz1, p1, v1 := s.Fetch("alpha", true)
	sz2, p2, v2 := s.Fetch("alpha", true)
	if sz1 != sz2 || p1 != p2 || !bytes.Equal(v1, v2) {
		t.Fatal("Fetch is not deterministic per key")
	}
	if sz1 != 256 {
		t.Fatalf("size = %d, want sizer's 256", sz1)
	}
	if len(v1) != 256 {
		t.Fatalf("value length = %d, want 256", len(v1))
	}
}

func TestFetchNilSizerDefaults(t *testing.T) {
	s := New(penalty.Default(), nil)
	sz, _, _ := s.Fetch("k", false)
	if sz != 100 {
		t.Fatalf("default size = %d, want 100", sz)
	}
}

func TestFetchNoFillSkipsValue(t *testing.T) {
	s := New(penalty.Default(), nil)
	_, _, v := s.Fetch("k", false)
	if v != nil {
		t.Fatal("fill=false should not synthesize a value")
	}
}

func TestCountersAccumulate(t *testing.T) {
	s := New(penalty.Uniform(0.5), nil)
	for i := 0; i < 4; i++ {
		s.Fetch("k", false)
	}
	if s.Fetches() != 4 {
		t.Fatalf("Fetches = %d, want 4", s.Fetches())
	}
	if got := s.TotalPenalty(); got < 1.99 || got > 2.01 {
		t.Fatalf("TotalPenalty = %v, want ~2.0", got)
	}
}

func TestPenaltyMatchesFetch(t *testing.T) {
	s := New(penalty.Default(), func(uint64) int { return 512 })
	_, p, _ := s.Fetch("beta", false)
	if got := s.Penalty("beta", 512); got != p {
		t.Fatalf("Penalty(%v) != Fetch penalty (%v)", got, p)
	}
}

func TestRealTimeSleeps(t *testing.T) {
	s := NewRealTime(penalty.Uniform(0.2), nil, 0.1) // 20ms sleep
	start := time.Now()
	s.Fetch("k", false)
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("real-time fetch returned after %v, want >=~20ms", el)
	}
}

func TestSynthesizeShapes(t *testing.T) {
	if got := Synthesize(1, 0); len(got) != 0 {
		t.Fatal("size 0 should give empty value")
	}
	if got := Synthesize(1, -3); len(got) != 0 {
		t.Fatal("negative size should give empty value")
	}
	a, b := Synthesize(1, 33), Synthesize(2, 33)
	if bytes.Equal(a, b) {
		t.Fatal("different keys should synthesize different bodies")
	}
	if len(a) != 33 {
		t.Fatalf("length %d, want 33", len(a))
	}
}

// TestSynthesizeMatchesByteLoop pins the copying generator byte for byte
// against a byte loop of its definition: byte i < 8 is byte i of
// x = kv.Mix64(keyHash), and byte i >= 8 is byte (x>>48 + i-8) mod 64 KiB of
// the pad, whose word w is kv.Mix64(w+1). Bodies are part of the wire
// contract: every process must synthesize the same bytes for a key.
func TestSynthesizeMatchesByteLoop(t *testing.T) {
	const padLen = 64 << 10
	byteLoop := func(keyHash uint64, size int) []byte {
		v := make([]byte, size)
		x := kv.Mix64(keyHash)
		for i := range v {
			if i < 8 {
				v[i] = byte(x >> (8 * uint(i)))
				continue
			}
			j := (int(x>>48) + i - 8) % padLen
			v[i] = byte(kv.Mix64(uint64(j/8)+1) >> (8 * uint(j%8)))
		}
		return v
	}
	for _, h := range []uint64{0, 1, 0xdeadbeefcafef00d} {
		for _, size := range []int{0, 1, 7, 8, 9, 40, 4 << 10, padLen + 100, 3*padLen + 9} {
			if got, want := Synthesize(h, size), byteLoop(h, size); !bytes.Equal(got, want) {
				t.Fatalf("hash %#x size %d: bodies differ", h, size)
			}
		}
	}
}

func TestFetchConcurrent(t *testing.T) {
	s := New(penalty.Default(), nil)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				s.Fetch("shared", false)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if s.Fetches() != 8000 {
		t.Fatalf("Fetches = %d, want 8000", s.Fetches())
	}
}

func TestFetchErrNoFaultsMatchesFetch(t *testing.T) {
	s := New(penalty.Default(), func(uint64) int { return 64 })
	sz, pen, val, err := s.FetchErr("k", true)
	if err != nil {
		t.Fatalf("FetchErr without faults errored: %v", err)
	}
	sz2, pen2, val2 := s.Fetch("k", true)
	if sz != sz2 || pen != pen2 || !bytes.Equal(val, val2) {
		t.Fatal("FetchErr without faults disagrees with Fetch")
	}
}

func TestFaultInjectionAlwaysFails(t *testing.T) {
	s := New(penalty.Default(), nil)
	s.SetFaults(&Faults{ErrRate: 1})
	for i := 0; i < 20; i++ {
		if _, _, _, err := s.FetchErr("k", false); err != ErrUnavailable {
			t.Fatalf("fetch %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if s.InjectedErrors() != 20 {
		t.Fatalf("InjectedErrors = %d, want 20", s.InjectedErrors())
	}
	if s.Fetches() != 20 {
		t.Fatalf("Fetches = %d, want 20 (failed fetches still hit the backend)", s.Fetches())
	}
	s.SetFaults(nil)
	if _, _, _, err := s.FetchErr("k", false); err != nil {
		t.Fatalf("after clearing faults: %v", err)
	}
}

func TestFaultInjectionRateApproximate(t *testing.T) {
	s := New(penalty.Default(), nil)
	s.SetFaults(&Faults{ErrRate: 0.2, Seed: 42})
	const n = 5000
	fails := 0
	for i := 0; i < n; i++ {
		if _, _, _, err := s.FetchErr("k", false); err != nil {
			fails++
		}
	}
	if got := float64(fails) / n; got < 0.15 || got > 0.25 {
		t.Fatalf("observed error rate %.3f, want ~0.20", got)
	}
}

func TestFaultInjectionDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		s := New(penalty.Default(), nil)
		s.SetFaults(&Faults{ErrRate: 0.5, Seed: seed})
		out := make([]bool, 100)
		for i := range out {
			_, _, _, err := s.FetchErr("k", false)
			out[i] = err != nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("fault stream not reproducible for equal seeds")
		}
	}
}

func TestFaultInjectionSpikes(t *testing.T) {
	s := New(penalty.Default(), nil)
	s.SetFaults(&Faults{SpikeRate: 1, SpikeSleep: 2 * time.Millisecond})
	start := time.Now()
	if _, _, _, err := s.FetchErr("k", false); err != nil {
		t.Fatalf("spike-only faults should not error: %v", err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("spike did not delay the fetch (took %s)", d)
	}
	if s.InjectedSpikes() != 1 {
		t.Fatalf("InjectedSpikes = %d, want 1", s.InjectedSpikes())
	}
}
