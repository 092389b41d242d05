package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoSequentialRunsEachCall(t *testing.T) {
	var g Group
	var calls atomic.Int32
	for i := 0; i < 3; i++ {
		v, err, shared := g.Do("k", func() (any, error) {
			calls.Add(1)
			return "v", nil
		})
		if err != nil || v.(string) != "v" || shared {
			t.Fatalf("Do = (%v, %v, %v), want (v, nil, false)", v, err, shared)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("sequential calls ran fn %d times, want 3", n)
	}
}

func TestDoCollapsesConcurrentCalls(t *testing.T) {
	var g Group
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 64
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	results := make([]any, waiters)
	// Leader blocks inside fn until every waiter has had a chance to join.
	go func() {
		g.Do("k", func() (any, error) {
			calls.Add(1)
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do("k", func() (any, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Give the waiters a moment to join the flight, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran fn %d times, want 1", waiters+1, n)
	}
	if n := sharedCount.Load(); n != waiters {
		t.Fatalf("shared reported by %d waiters, want %d", n, waiters)
	}
	for i, v := range results {
		if v.(int) != 42 {
			t.Fatalf("waiter %d got %v, want 42", i, v)
		}
	}
}

func TestDoSharesErrors(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		g.Do("k", func() (any, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("k", func() (any, error) { return nil, nil })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want boom", err)
	}
}
