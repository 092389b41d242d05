package backend

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pamakv/internal/kv"
	"pamakv/internal/penalty"
)

// TestFetchSharedCollapsesConcurrentMisses is the thundering-herd
// regression test: 64 concurrent fetches of one key must cost exactly one
// backend call, and every caller must receive the same value.
func TestFetchSharedCollapsesConcurrentMisses(t *testing.T) {
	// A real-time store with a uniform 50ms penalty at full scale: every
	// fetch sleeps long enough that all 64 callers overlap one flight.
	s := NewRealTime(penalty.Uniform(0.05), func(uint64) int { return 64 }, 1.0)

	const callers = 64
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	values := make([][]byte, callers)
	errs := make([]error, callers)
	ready.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-start
			var size int
			size, _, errs[i] = s.FetchShared("hot-key")
			values[i] = make([]byte, size)
			s.FillInto(values[i], "hot-key")
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()

	if got := s.Fetches(); got != 1 {
		t.Fatalf("%d concurrent misses cost %d backend fetches, want 1", callers, got)
	}
	if got := s.SharedFetches(); got != callers {
		t.Fatalf("SharedFetches = %d, want %d", got, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(values[i]) != 64 || !bytes.Equal(values[i], values[0]) {
			t.Fatalf("caller %d filled a different value", i)
		}
	}
}

// TestFetchSharedSequentialFetchesEachTime: singleflight is concurrency
// control, not caching — non-overlapping calls each hit the backend.
func TestFetchSharedSequentialFetchesEachTime(t *testing.T) {
	s := New(penalty.Uniform(0.01), nil)
	want := Synthesize(kv.HashString("k"), 100)
	for i := 0; i < 3; i++ {
		size, pen, err := s.FetchShared("k")
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, size)
		s.FillInto(body, "k")
		if size != 100 || pen != 0.01 || !bytes.Equal(body, want) {
			t.Fatalf("fetch %d: size %d, penalty %v, body %x", i, size, pen, body)
		}
	}
	if got := s.Fetches(); got != 3 {
		t.Fatalf("3 sequential fetches cost %d backend calls, want 3", got)
	}
	if got := s.SharedFetches(); got != 0 {
		t.Fatalf("sequential fetches recorded %d shared, want 0", got)
	}
}

// TestFetchSharedSharesFailures: concurrent callers coalesced onto a failed
// flight all see the failure, and the backend was still hit only once.
func TestFetchSharedSharesFailures(t *testing.T) {
	s := New(penalty.Uniform(0.05), nil)
	// Every fetch pays a 50ms spike then fails: the spike keeps the flight
	// open long enough for all callers to coalesce onto it.
	s.SetFaults(&Faults{ErrRate: 1.0, SpikeRate: 1.0, SpikeSleep: 50 * time.Millisecond, Seed: 1})

	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, errs[i] = s.FetchShared("k")
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d succeeded under ErrRate 1.0", i)
		}
	}
	// All coalesced calls share flights; far fewer backend hits than
	// callers (scheduling may split them across a few flights).
	if got := s.Fetches(); got > callers/2 {
		t.Fatalf("%d concurrent failing fetches hit the backend %d times", callers, got)
	}
}
