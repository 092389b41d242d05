package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerConfig tunes a per-peer circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the circuit;
	// <= 0 means DefaultBreakerThreshold.
	Threshold int
	// Cooldown is how long an open circuit rejects requests before
	// allowing one half-open probe; <= 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
}

// Breaker defaults: five consecutive failures is past bad luck on a healthy
// peer, and a 500ms cooldown keeps a dead peer from adding more than ~2
// failed dials per second of drag while staying quick to re-admit.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 500 * time.Millisecond
)

// breaker is a consecutive-failure circuit breaker. Closed it admits all
// requests; Threshold consecutive failures open it; open it fails fast for
// Cooldown, then admits exactly one half-open probe whose outcome closes or
// re-opens the circuit. Every opening is counted in *opens, the owning
// client's BreakerOpens.
type breaker struct {
	threshold int
	cooldown  time.Duration
	// now is stubbed by tests.
	now func() time.Time

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool // a half-open probe is in flight
	opens     *uint64
}

func newBreaker(cfg BreakerConfig, opens *uint64) *breaker {
	b := &breaker{threshold: cfg.Threshold, cooldown: cfg.Cooldown, now: time.Now, opens: opens}
	if b.threshold <= 0 {
		b.threshold = DefaultBreakerThreshold
	}
	if b.cooldown <= 0 {
		b.cooldown = DefaultBreakerCooldown
	}
	return b
}

// allow reports whether a request may proceed. While open it returns false
// until the cooldown elapses, then true for a single probe at a time.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if b.now().Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// success records a completed request and closes the circuit.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.openUntil = time.Time{}
	b.probing = false
	b.mu.Unlock()
}

// failure records a failed request, opening the circuit at the threshold or
// re-opening it when a half-open probe fails.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.probing || b.fails >= b.threshold {
		b.probing = false
		if b.openUntil.IsZero() || !b.now().Before(b.openUntil) {
			atomic.AddUint64(b.opens, 1)
		}
		b.openUntil = b.now().Add(b.cooldown)
	}
}

// open reports whether the circuit is currently rejecting requests.
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.IsZero() && b.now().Before(b.openUntil)
}
