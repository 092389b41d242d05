package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// clockGoroutines counts the goroutines running a coarse clock's ticker loop.
func clockGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "obs.(*coarseClock).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCoarseClockFirstRead: the first read stores a reading itself, so it is
// current although the clock's goroutine has not ticked yet (its tick here is
// an hour).
func TestCoarseClockFirstRead(t *testing.T) {
	c := &coarseClock{tick: time.Hour}
	mono, wall := MonoNanos(), time.Now().Unix()
	if got := c.now(); got < mono || got > MonoNanos() {
		t.Fatalf("first now() = %d, want within [%d, %d]", got, mono, MonoNanos())
	}
	if got := c.wall(); got < wall || got > time.Now().Unix() {
		t.Fatalf("first wall() = %d, want within [%d, %d]", got, wall, time.Now().Unix())
	}
}

// TestCoarseClockTracksTime: once running, both readings of the process clock
// stay within a tick, plus scheduling slack, of the clocks they sample, and
// never run ahead of them. A clock that stopped ticking falls 300 ms behind
// between reads and fails.
func TestCoarseClockTracksTime(t *testing.T) {
	const slack = 100 * time.Millisecond
	Now()
	for i := 0; i < 3; i++ {
		time.Sleep(300 * time.Millisecond)
		mono, wall := Now(), Unix()
		if lag := time.Duration(MonoNanos() - mono); lag < 0 || lag > clockTick+slack {
			t.Errorf("Now() is %v behind MonoNanos, want within [0, %v]", lag, clockTick+slack)
		}
		if lag := time.Now().Unix() - wall; lag < 0 || lag > 1 {
			t.Errorf("Unix() is %d s behind time.Now, want 0 or 1", lag)
		}
	}
}

// TestCoarseClockOneGoroutine: reads racing from many goroutines start the
// clock's goroutine exactly once.
func TestCoarseClockOneGoroutine(t *testing.T) {
	c := &coarseClock{tick: time.Hour}
	before := clockGoroutines()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				c.now()
			} else {
				c.wall()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if got := clockGoroutines() - before; got != 1 {
		t.Fatalf("64 racing first reads started %d clock goroutines, want 1", got)
	}
}
