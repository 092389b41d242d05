package cache

// The coarse expiry clock. expired() compares a TTL with nowCache, a unix
// second the engine's background maintainer refreshes every interval, so a
// read of an item with a TTL costs no wall-clock read. The maintainer alone
// owns nowCache: it is warm from StartMaintainer until StopMaintainer, never
// set on an engine with an injected Config.Now, and reset to 0 on stop, so an
// engine without a maintainer reads the wall clock per check instead of
// judging TTLs against a frozen second.

import (
	"sync"
	"time"
)

// maintainer is the goroutine that keeps nowCache fresh.
type maintainer struct {
	mu   sync.Mutex    // guards stop
	stop chan struct{} // non-nil while the goroutine runs
	wg   sync.WaitGroup
}

// StartMaintainer launches the engine's background maintainer, which
// refreshes the coarse expiry clock every interval (default 10ms). An engine
// with an injected Config.Now needs none and starts none. Idempotent while
// running; pair with StopMaintainer.
func (c *Cache) StartMaintainer(interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	m := &c.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil || c.cfg.Now != nil {
		return
	}
	c.nowCache.Store(time.Now().Unix())
	stop := make(chan struct{})
	m.stop = stop
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.nowCache.Store(time.Now().Unix())
			}
		}
	}()
}

// StopMaintainer stops the maintainer goroutine, waits for it to exit and
// resets the coarse clock.
func (c *Cache) StopMaintainer() {
	m := &c.maint
	m.mu.Lock()
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	m.wg.Wait()
	c.nowCache.Store(0)
}
