// Package overload is the server's admission controller: the component that
// decides, request by request, whether a saturated cache should serve, queue,
// or shed. It applies the paper's central idea — not all misses cost the
// same — to load shedding: a request whose miss penalty is 1 ms is nearly
// free to drop, one whose penalty is 5 s is a disaster, so under pressure the
// controller sheds cheap-penalty traffic first and protects the expensive
// subclasses, the same asymmetry PAMA exploits for slab pricing.
//
// Three mechanisms compose:
//
//   - An adaptive concurrency limiter: the admitted-in-flight limit follows
//     observed service latency by AIMD against a p99 target — latency
//     above target multiplies the limit down, headroom under a saturated
//     limit adds to it — bounded above by a hard ceiling (MaxInflight) that
//     is never exceeded, whatever the controller has learned.
//   - A bounded pending queue with a CoDel-style sojourn cutoff: requests
//     that cannot run immediately wait, ordered by priority; a request whose
//     queueing delay exceeds SojournCutoff is shed rather than served late
//     (serving a request the client has already timed out on is pure waste).
//     When the queue is full, a new high-priority request displaces the
//     lowest-priority waiter instead of being dropped itself.
//   - A penalty-aware shed policy over pressure tiers: pressure (limit
//     saturation, queue occupancy) maps to tiers 0–3 with hysteresis, and
//     each tier widens the band of traffic shed outright — first nothing
//     (tier 1 only degrades: serve-stale, halved peer retries, no
//     hot-cache backfill), then cheap-penalty reads, then writes and everything but
//     the expensive read subclasses.
//
// The controller is transport-agnostic: the server calls AcquireSLO before
// dispatching a parsed request and the returned release func after, feeding
// back the observed service latency.
package overload

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"pamakv/internal/obs"
)

// Pressure tiers. Tier is recomputed on every admission event and decays one
// level at a time after TierHold without renewed pressure.
const (
	// TierNormal: below the limit, no degradation.
	TierNormal = 0
	// TierStrained: the limit is saturated. Degrade sideways — serve
	// stale aggressively, stop hot-cache backfill, halve peer retry
	// budgets — but shed nothing.
	TierStrained = 1
	// TierShedding: the queue is filling. Cheap-penalty reads are shed
	// instead of queued when over limit, their backend fetches are
	// suppressed, and retry budgets halve.
	TierShedding = 2
	// TierCritical: the queue is near full. All writes and all but the
	// expensive read subclasses are shed.
	TierCritical = 3
)

// Op classifies a request for the shed policy.
type Op int

const (
	// OpRead is a retrieval (get/gets).
	OpRead Op = iota
	// OpWrite is a mutation (set/add/replace/cas/incr/decr/delete/touch).
	OpWrite
)

// Reason labels why a request was shed.
type Reason int

const (
	// ReasonNone: not shed.
	ReasonNone Reason = iota
	// ReasonPolicy: the pressure tier sheds this (op, subclass) band
	// outright.
	ReasonPolicy
	// ReasonQueueFull: the pending queue was full of equal-or-higher
	// priority work.
	ReasonQueueFull
	// ReasonSojourn: queued longer than the sojourn cutoff.
	ReasonSojourn
	// ReasonClosed: the controller was closed while the request waited.
	ReasonClosed
	numReasons
)

// String names the reason for counters and logs.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonPolicy:
		return "policy"
	case ReasonQueueFull:
		return "queue_full"
	case ReasonSojourn:
		return "sojourn"
	case ReasonClosed:
		return "closed"
	}
	return "unknown"
}

// Defaults. The target latency is deliberately loose — it is the knee where
// the limiter stops growing, not an SLO — and the sojourn cutoff is the
// CoDel-style bound on how stale a queued request may get before serving it
// stops being useful.
const (
	DefaultMaxInflight   = 256
	DefaultMinLimit      = 4
	DefaultTarget        = 25 * time.Millisecond
	DefaultAdjustEvery   = 100 * time.Millisecond
	DefaultSojournCutoff = 50 * time.Millisecond
	DefaultTierHold      = 500 * time.Millisecond
)

// The limiter's quantile and the shed policy's subclass bands.
const (
	// quantile is the service-latency quantile the limiter compares with
	// Target: Target is a p99 (pama-server's -target-p99).
	quantile = 0.99
	// cheapSub is the highest penalty subclass considered "cheap", shed at
	// TierShedding: subclasses 0 and 1 are misses of at most 10 ms —
	// refusing them under pressure costs each client about what a queued
	// request would have waited anyway.
	cheapSub = 1
	// criticalSub is the lowest read subclass still served at
	// TierCritical: subclasses 3 and 4 are 100 ms–5 s misses, the traffic
	// whose loss the paper prices as disasters.
	criticalSub = 3
)

// Config tunes a Controller. The zero value of every field selects its
// default.
type Config struct {
	// MaxInflight is the hard ceiling on concurrently admitted requests.
	// The adaptive limit lives in [MinLimit, MaxInflight].
	MaxInflight int
	// MinLimit floors the adaptive limit so a latency spike cannot choke
	// the server to zero.
	MinLimit int
	// InitialLimit seeds the adaptive limit; 0 means MaxInflight/4
	// (clamped to [MinLimit, MaxInflight]).
	InitialLimit int
	// Target is the p99 service latency the limiter steers toward.
	Target time.Duration
	// AdjustEvery is the limiter's adjustment period.
	AdjustEvery time.Duration
	// QueueLimit bounds the pending queue; 0 means MaxInflight (after
	// defaulting), negative means no queue (immediate shed when over
	// limit and not protected).
	QueueLimit int
	// SojournCutoff bounds how long a request may queue before it is
	// shed instead of served.
	SojournCutoff time.Duration
	// TierHold is the hysteresis window: a tier decays one level only
	// after this long without renewed pressure at that tier.
	TierHold time.Duration
	// OnTierChange, when set, is called (outside the controller's lock)
	// whenever the effective tier changes. The server uses it to flip
	// cluster degradation.
	OnTierChange func(tier int)
	// Now stubs time for tests; nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MinLimit <= 0 {
		c.MinLimit = DefaultMinLimit
	}
	if c.MinLimit > c.MaxInflight {
		c.MinLimit = c.MaxInflight
	}
	if c.InitialLimit <= 0 {
		c.InitialLimit = c.MaxInflight / 4
	}
	if c.InitialLimit < c.MinLimit {
		c.InitialLimit = c.MinLimit
	}
	if c.InitialLimit > c.MaxInflight {
		c.InitialLimit = c.MaxInflight
	}
	if c.Target <= 0 {
		c.Target = DefaultTarget
	}
	if c.AdjustEvery <= 0 {
		c.AdjustEvery = DefaultAdjustEvery
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = c.MaxInflight
	}
	if c.QueueLimit < 0 {
		c.QueueLimit = 0
	}
	if c.SojournCutoff <= 0 {
		c.SojournCutoff = DefaultSojournCutoff
	}
	if c.TierHold <= 0 {
		c.TierHold = DefaultTierHold
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// waiter is one queued request. ready is buffered so the waker never blocks
// on a waiter that timed out concurrently.
type waiter struct {
	pri   int
	seq   uint64
	enq   time.Time
	ready chan bool // true = admitted, false = shed
	index int       // heap index; -1 once removed
}

// waiterQueue is a max-heap by priority, FIFO within a priority.
type waiterQueue []*waiter

func (q waiterQueue) Len() int { return len(q) }
func (q waiterQueue) Less(i, j int) bool {
	if q[i].pri != q[j].pri {
		return q[i].pri > q[j].pri
	}
	return q[i].seq < q[j].seq
}
func (q waiterQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *waiterQueue) Push(x any) {
	w := x.(*waiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *waiterQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}

// lowest returns the index of the lowest-priority (then youngest) waiter.
// A heap orders only the top; eviction wants the bottom, so scan — the queue
// is bounded and eviction only happens when it is full.
func (q waiterQueue) lowest() int {
	lo := 0
	for i := 1; i < len(q); i++ {
		w, l := q[i], q[lo]
		if w.pri < l.pri || (w.pri == l.pri && w.seq > l.seq) {
			lo = i
		}
	}
	return lo
}

// Controller is the admission controller. Construct with New; safe for
// concurrent use from every connection goroutine.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	limit    int
	queue    waiterQueue
	seq      uint64
	closed   bool

	// saturated records whether the limit was the binding constraint at
	// any point in the current adjustment window (the limiter only grows
	// a limit that is actually in the way).
	saturated bool
	lastAdj   time.Time

	// tier state under mu; tierAtomic mirrors it for lock-free reads.
	tier       int
	tierSince  time.Time
	tierAtomic atomic.Int32
	// lastNotified is the tier OnTierChange last saw.
	lastNotified int

	// peakInflight is the high-water mark of admitted concurrency — the
	// storm test's proof that the ceiling held.
	peakInflight int

	// lat collects observed service latencies; prevLat is the snapshot at
	// the last adjustment, so each window adjusts on its own delta.
	lat     *obs.Hist
	prevLat obs.HistSnapshot
	// sojourn records queueing delay of every queued request, admitted
	// or shed.
	sojourn *obs.Hist

	// ctr is the live counter set, bumped with atomic.AddUint64 and
	// loaded by Stats (obs.Load).
	ctr *counters
}

// counters is a Controller's live counter set. Sheds by reason stay an
// array here: Stats publishes them as a map by reason name and their sum.
type counters struct {
	Counters
	ShedCounters
	shedBy [numReasons]uint64
}

// numSubs matches penalty.SubclassBounds; kept literal so the package does
// not import penalty (the caller maps keys to subclasses).
const numSubs = 5

// numSLO matches tenant.MaxSLOClass+1; kept literal so the package does not
// import tenant (the caller maps keys to tenant SLO classes).
const numSLO = 4

// New builds a Controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:     cfg,
		limit:   cfg.InitialLimit,
		ctr:     new(counters),
		lat:     obs.NewHist(1e-6, 7),
		sojourn: obs.NewHist(1e-6, 7),
	}
	c.prevLat = c.lat.Snapshot()
	c.lastAdj = cfg.Now()
	c.tierSince = c.lastAdj
	return c
}

// priorityFor maps (op, subclass) to a scalar queue priority: reads rank by
// penalty subclass, writes sit between the cheap and expensive read bands —
// a write is worth more than re-fetchable cheap data but must yield to reads
// whose miss costs real seconds (and writes shed before reads at the top
// tier).
func priorityFor(op Op, sub int) int {
	if sub < 0 {
		sub = 0
	}
	if sub >= numSubs {
		sub = numSubs - 1
	}
	if op == OpWrite {
		return 13
	}
	return 10 + 2*sub
}

// AcquireSLO asks to admit one request of the given op kind and penalty
// subclass from a tenant of SLO class slo (0 = most protected, and the only
// class without multi-tenant serving). It returns admit=true with a release
// func (call it exactly once, with the observed service latency), or
// admit=false with the shed reason. It may block up to SojournCutoff while
// the request queues.
//
// The shed policy and queue priority act on the request's effective
// subclass, its penalty subclass demoted by the SLO class — so under
// pressure a best-effort tenant's expensive reads shed like a premium
// tenant's cheap ones, and tenant B's cheap reads drop before tenant A's
// expensive ones. Shed attribution keeps the true penalty subclass and
// additionally counts by SLO class.
func (c *Controller) AcquireSLO(op Op, sub, slo int) (admit bool, reason Reason, release func(latency time.Duration)) {
	if sub < 0 {
		sub = 0
	}
	if sub >= numSubs {
		sub = numSubs - 1
	}
	slo = clampSLO(slo)
	eff := sub - slo
	if eff < 0 {
		eff = 0
	}
	now := c.cfg.Now()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		atomic.AddUint64(&c.ctr.shedBy[ReasonClosed], 1)
		atomic.AddUint64(&c.ctr.ShedBySub[sub], 1)
		atomic.AddUint64(&c.ctr.ShedBySLO[slo], 1)
		return false, ReasonClosed, nil
	}
	tier := c.tier
	// TierCritical policy applies before the limit check: the queue is
	// near collapse and even a momentarily free slot should go to
	// protected traffic.
	if tier >= TierCritical && (op == OpWrite || eff < criticalSub) {
		c.shed(ReasonPolicy, sub, slo)
		c.mu.Unlock()
		c.notifyTier()
		return false, ReasonPolicy, nil
	}
	if c.inflight < c.limit && len(c.queue) == 0 {
		c.admit(now)
		c.mu.Unlock()
		c.notifyTier()
		return true, ReasonNone, c.releaseFunc(sub)
	}
	// Over limit (or behind queued work). At TierShedding and above,
	// cheap-penalty reads are shed rather than queued: the queue's slots
	// are kept for traffic whose miss penalty is worth waiting for. An
	// under-limit cheap read is still admitted above — it may be a
	// nearly-free cache hit.
	if tier >= TierShedding && op == OpRead && eff <= cheapSub {
		c.shed(ReasonPolicy, sub, slo)
		c.mu.Unlock()
		c.notifyTier()
		return false, ReasonPolicy, nil
	}
	// Queue — unless the queue is full of equal-or-better work, in which
	// case the cheapest of (new request, worst waiter) is shed.
	if len(c.queue) >= c.cfg.QueueLimit {
		pri := priorityFor(op, eff)
		if c.cfg.QueueLimit == 0 {
			c.shed(ReasonQueueFull, sub, slo)
			c.mu.Unlock()
			c.notifyTier()
			return false, ReasonQueueFull, nil
		}
		lo := c.queue.lowest()
		if c.queue[lo].pri >= pri {
			c.shed(ReasonQueueFull, sub, slo)
			c.mu.Unlock()
			c.notifyTier()
			return false, ReasonQueueFull, nil
		}
		// Displace the lowest-priority waiter in favor of this one.
		w := c.queue[lo]
		heap.Remove(&c.queue, lo)
		w.ready <- false
		atomic.AddUint64(&c.ctr.shedBy[ReasonQueueFull], 1)
		// The displaced waiter's subclass is unknown here; its shed is
		// attributed when its AcquireSLO observes the false send.
	}
	w := &waiter{
		pri:   priorityFor(op, eff),
		seq:   c.seq,
		enq:   now,
		ready: make(chan bool, 1),
	}
	c.seq++
	heap.Push(&c.queue, w)
	atomic.AddUint64(&c.ctr.QueuedTotal, 1)
	c.recomputeTierLocked(now)
	c.mu.Unlock()
	c.notifyTier()

	t := time.NewTimer(c.cfg.SojournCutoff)
	defer t.Stop()
	var ok bool
	select {
	case ok = <-w.ready:
	case <-t.C:
		c.mu.Lock()
		if w.index >= 0 {
			heap.Remove(&c.queue, w.index)
			c.mu.Unlock()
			c.sojourn.Observe(c.cfg.Now().Sub(w.enq).Seconds())
			atomic.AddUint64(&c.ctr.shedBy[ReasonSojourn], 1)
			atomic.AddUint64(&c.ctr.ShedBySub[sub], 1)
			atomic.AddUint64(&c.ctr.ShedBySLO[slo], 1)
			return false, ReasonSojourn, nil
		}
		// Admitted or displaced in the race with the timer; the send
		// is buffered and already made.
		c.mu.Unlock()
		ok = <-w.ready
	}
	c.sojourn.Observe(c.cfg.Now().Sub(w.enq).Seconds())
	if !ok {
		// Displaced by a higher-priority arrival or closed.
		reason = ReasonQueueFull
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			reason = ReasonClosed
		}
		atomic.AddUint64(&c.ctr.ShedBySub[sub], 1)
		atomic.AddUint64(&c.ctr.ShedBySLO[slo], 1)
		return false, reason, nil
	}
	return true, ReasonNone, c.releaseFunc(sub)
}

// ShedFetchSLO reports whether a backend fetch for a missed key of the given
// penalty subclass, from a tenant of SLO class slo, should be suppressed at
// the current tier. The SLO class demotes the effective subclass, mirroring
// AcquireSLO. TierShedding suppresses cheap fetches — the miss costs the
// client less than the capacity the fetch would burn — and TierCritical
// suppresses everything below the protected subclasses.
func (c *Controller) ShedFetchSLO(sub, slo int) bool {
	if eff := sub - clampSLO(slo); eff >= 0 {
		sub = eff
	} else {
		sub = 0
	}
	switch t := c.Tier(); {
	case t >= TierCritical:
		return sub < criticalSub
	case t >= TierShedding:
		return sub <= cheapSub
	default:
		return false
	}
}

func clampSLO(slo int) int {
	if slo < 0 {
		return 0
	}
	if slo >= numSLO {
		return numSLO - 1
	}
	return slo
}

// shed counts one immediate shed under mu.
func (c *Controller) shed(r Reason, sub, slo int) {
	atomic.AddUint64(&c.ctr.shedBy[r], 1)
	atomic.AddUint64(&c.ctr.ShedBySub[sub], 1)
	atomic.AddUint64(&c.ctr.ShedBySLO[slo], 1)
	c.recomputeTierLocked(c.cfg.Now())
}

// admit records one admission under mu.
func (c *Controller) admit(now time.Time) {
	c.inflight++
	if c.inflight > c.peakInflight {
		c.peakInflight = c.inflight
	}
	if c.inflight >= c.limit {
		c.saturated = true
	}
	atomic.AddUint64(&c.ctr.Admitted, 1)
	c.recomputeTierLocked(now)
}

// releaseFunc returns the closure handed to an admitted request.
func (c *Controller) releaseFunc(sub int) func(time.Duration) {
	var once sync.Once
	return func(latency time.Duration) {
		once.Do(func() { c.release(latency) })
	}
}

// release returns a slot: observe latency, maybe adjust the limit, wake the
// best waiter if a slot is free.
func (c *Controller) release(latency time.Duration) {
	if latency > 0 {
		c.lat.Observe(latency.Seconds())
	}
	now := c.cfg.Now()
	c.mu.Lock()
	c.inflight--
	if now.Sub(c.lastAdj) >= c.cfg.AdjustEvery {
		c.adjustLocked()
		c.lastAdj = now
	}
	for c.inflight < c.limit && len(c.queue) > 0 {
		w := heap.Pop(&c.queue).(*waiter)
		c.inflight++
		if c.inflight > c.peakInflight {
			c.peakInflight = c.inflight
		}
		if c.inflight >= c.limit {
			c.saturated = true
		}
		atomic.AddUint64(&c.ctr.Admitted, 1)
		w.ready <- true
	}
	c.recomputeTierLocked(now)
	c.mu.Unlock()
	c.notifyTier()
}

// adjustLocked is one AIMD step: compare the window's latency quantile with
// the target; multiply the limit down when over, add when saturated and
// comfortably under.
func (c *Controller) adjustLocked() {
	cur := c.lat.Snapshot()
	delta, err := cur.Delta(c.prevLat)
	c.prevLat = cur
	if err != nil || delta.Count == 0 {
		return
	}
	q := delta.Quantile(quantile)
	target := c.cfg.Target.Seconds()
	switch {
	case q > target:
		// Multiplicative decrease toward what was actually running.
		next := c.limit * 9 / 10
		if next >= c.limit {
			next = c.limit - 1
		}
		if next < c.cfg.MinLimit {
			next = c.cfg.MinLimit
		}
		if next != c.limit {
			c.limit = next
			atomic.AddUint64(&c.ctr.LimitDecreases, 1)
		}
	case q < target*8/10 && c.saturated:
		// Additive increase, only when the limit was binding.
		step := c.limit / 10
		if step < 1 {
			step = 1
		}
		next := c.limit + step
		if next > c.cfg.MaxInflight {
			next = c.cfg.MaxInflight
		}
		if next != c.limit {
			c.limit = next
			atomic.AddUint64(&c.ctr.LimitIncreases, 1)
		}
	}
	c.saturated = c.inflight >= c.limit
}

// recomputeTierLocked maps instantaneous pressure to a tier with hysteresis:
// the tier rises immediately and decays one level per TierHold of calm.
func (c *Controller) recomputeTierLocked(now time.Time) {
	inst := TierNormal
	switch {
	case c.cfg.QueueLimit > 0 && len(c.queue)*4 >= c.cfg.QueueLimit*3:
		inst = TierCritical
	case c.cfg.QueueLimit > 0 && len(c.queue)*4 >= c.cfg.QueueLimit:
		inst = TierShedding
	case c.inflight >= c.limit:
		inst = TierStrained
	}
	switch {
	case inst > c.tier:
		c.tier = inst
		c.tierSince = now
	case inst < c.tier && now.Sub(c.tierSince) >= c.cfg.TierHold:
		c.tier--
		c.tierSince = now
	}
	c.tierAtomic.Store(int32(c.tier))
}

// notifyTier invokes OnTierChange outside the lock when the published tier
// moved since the last notification.
func (c *Controller) notifyTier() {
	if c.cfg.OnTierChange == nil {
		return
	}
	t := int(c.tierAtomic.Load())
	c.mu.Lock()
	changed := c.lastNotified != t
	if changed {
		c.lastNotified = t
	}
	c.mu.Unlock()
	if changed {
		c.cfg.OnTierChange(t)
	}
}

// Tier returns the current pressure tier (lock-free).
func (c *Controller) Tier() int { return int(c.tierAtomic.Load()) }

// Limit returns the current adaptive concurrency limit.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Close sheds every queued waiter and makes subsequent Acquires fail with
// ReasonClosed. In-flight requests finish normally.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	waiters := make([]*waiter, len(c.queue))
	copy(waiters, c.queue)
	for _, w := range waiters {
		w.index = -1
	}
	c.queue = c.queue[:0]
	c.mu.Unlock()
	for _, w := range waiters {
		w.ready <- false
		atomic.AddUint64(&c.ctr.shedBy[ReasonClosed], 1)
	}
}

// Stats is a point-in-time snapshot of the controller.
type Stats struct {
	// Limit is the adaptive concurrency limit; MaxInflight the hard
	// ceiling it lives under.
	Limit       int `json:"limit" prom:"pamakv_overload_limit" help:"Adaptive concurrency limit."`
	MaxInflight int `json:"max_inflight" prom:"pamakv_overload_max_inflight" help:"Hard in-flight ceiling." stat:"-"`
	// Inflight and Queued are the current occupancy; PeakInflight is the
	// admitted-concurrency high-water mark (never exceeds MaxInflight).
	Inflight     int `json:"inflight" prom:"pamakv_overload_inflight" help:"Requests admitted and in flight."`
	Queued       int `json:"queued" prom:"pamakv_overload_queued" help:"Requests waiting for admission."`
	PeakInflight int `json:"peak_inflight" prom:"pamakv_overload_peak_inflight" help:"High-water mark of admitted concurrency."`
	// Tier is the current pressure tier (0 normal … 3 critical).
	Tier int `json:"tier" prom:"pamakv_overload_tier" help:"Pressure tier (0 normal .. 3 critical)."`
	Counters
	// ShedByReason counts sheds keyed by Reason string.
	ShedByReason map[string]uint64 `json:"shed_by_reason" prom:"pamakv_overload_sheds_total" help:"Sheds by reason." label:"reason"`
	ShedCounters
	// ShedTotal sums ShedByReason.
	ShedTotal uint64 `json:"shed_total"`
	// Sojourn is the queueing-delay histogram of queued requests
	// (admitted and shed alike); Service the observed service latencies
	// feeding the limiter.
	Sojourn obs.HistSnapshot `json:"sojourn" prom:"pamakv_overload_sojourn_seconds" help:"Admission-queue waiting time."`
	Service obs.HistSnapshot `json:"service" prom:"pamakv_overload_service_seconds" help:"Observed service latency feeding the limiter."`
}

// Counters are the controller's monotonic counters: Admitted counts
// requests admitted (directly or from the queue), QueuedTotal requests that
// waited in the queue at all, LimitIncreases and LimitDecreases AIMD steps.
type Counters struct {
	Admitted       uint64 `json:"admitted" prom:"pamakv_overload_admitted_total" help:"Requests admitted past the controller."`
	QueuedTotal    uint64 `json:"queued_total" prom:"pamakv_overload_queued_total" help:"Requests that waited in the admission queue." stat:"-"`
	LimitIncreases uint64 `json:"limit_increases" prom:"pamakv_overload_limit_increases_total" help:"AIMD limit raises." stat:"-"`
	LimitDecreases uint64 `json:"limit_decreases" prom:"pamakv_overload_limit_decreases_total" help:"AIMD limit cuts." stat:"-"`
}

// ShedCounters count sheds by the request's penalty subclass and by the
// requesting tenant's SLO class (all index 0 without multi-tenant serving).
type ShedCounters struct {
	ShedBySub [numSubs]uint64 `json:"shed_by_sub" prom:"pamakv_overload_sheds_by_sub_total,sparse" help:"Sheds by penalty subclass." label:"sub"`
	ShedBySLO [numSLO]uint64  `json:"shed_by_slo" prom:"pamakv_overload_sheds_by_slo_total,sparse" help:"Sheds by the requesting tenant's SLO class." label:"slo"`
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		Limit:        c.limit,
		MaxInflight:  c.cfg.MaxInflight,
		Inflight:     c.inflight,
		Queued:       len(c.queue),
		PeakInflight: c.peakInflight,
		Tier:         c.tier,
	}
	c.mu.Unlock()
	ctr := obs.Load(c.ctr)
	s.Counters, s.ShedCounters = ctr.Counters, ctr.ShedCounters
	s.ShedByReason = make(map[string]uint64, int(numReasons))
	for r := ReasonPolicy; r < numReasons; r++ {
		if n := ctr.shedBy[r]; n > 0 {
			s.ShedByReason[r.String()] = n
			s.ShedTotal += n
		}
	}
	s.Sojourn = c.sojourn.Snapshot()
	s.Service = c.lat.Snapshot()
	return s
}
