package overload

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubClock is a manually advanced clock for deterministic limiter tests.
type stubClock struct {
	mu  sync.Mutex
	now time.Time
}

func newStubClock() *stubClock { return &stubClock{now: time.Unix(1_000_000, 0)} }

func (s *stubClock) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *stubClock) Advance(d time.Duration) {
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

func TestAcquireReleaseUnderLimit(t *testing.T) {
	c := New(Config{MaxInflight: 8, InitialLimit: 8})
	var rels []func(time.Duration)
	for i := 0; i < 8; i++ {
		ok, reason, rel := c.AcquireSLO(OpRead, 2, 0)
		if !ok {
			t.Fatalf("acquire %d: shed (%v)", i, reason)
		}
		rels = append(rels, rel)
	}
	st := c.Stats()
	if st.Inflight != 8 || st.Admitted != 8 {
		t.Fatalf("inflight=%d admitted=%d, want 8/8", st.Inflight, st.Admitted)
	}
	for _, rel := range rels {
		rel(time.Millisecond)
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight=%d after release, want 0", st.Inflight)
	}
}

// TestStatsPublishLiveCounters: Stats publishes the live counter set, each
// counter once, under its json name and in declaration order; the sheds by
// reason become the map and its total.
func TestStatsPublishLiveCounters(t *testing.T) {
	c := New(Config{})
	*c.ctr = counters{
		Counters:     Counters{1, 2, 3, 4},
		ShedCounters: ShedCounters{[numSubs]uint64{5, 6, 7, 8, 9}, [numSLO]uint64{10, 11, 12, 13}},
		shedBy:       [numReasons]uint64{ReasonPolicy: 14, ReasonSojourn: 15},
	}
	b, err := json.Marshal(c.Stats())
	if err != nil {
		t.Fatal(err)
	}
	want := `"admitted":1,"queued_total":2,"limit_increases":3,"limit_decreases":4,` +
		`"shed_by_reason":{"policy":14,"sojourn":15},"shed_by_sub":[5,6,7,8,9],"shed_by_slo":[10,11,12,13],"shed_total":29,`
	if !strings.Contains(string(b), want) {
		t.Errorf("Stats JSON lacks %s:\n%s", want, b)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	c := New(Config{MaxInflight: 4})
	_, _, rel := c.AcquireSLO(OpRead, 2, 0)
	rel(time.Millisecond)
	rel(time.Millisecond) // double release must not underflow
	if st := c.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight=%d, want 0", st.Inflight)
	}
}

func TestHardCeilingNeverExceeded(t *testing.T) {
	const ceiling = 16
	c := New(Config{MaxInflight: ceiling, InitialLimit: ceiling, SojournCutoff: 5 * time.Millisecond})
	var wg sync.WaitGroup
	var cur, peak atomic.Int64
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, _, rel := c.AcquireSLO(OpRead, 4, 0)
			if !ok {
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			rel(200 * time.Microsecond)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > ceiling {
		t.Fatalf("observed concurrency %d exceeds ceiling %d", p, ceiling)
	}
	if st := c.Stats(); st.PeakInflight > ceiling {
		t.Fatalf("controller's own peak %d exceeds ceiling %d", st.PeakInflight, ceiling)
	}
}

func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	c := New(Config{MaxInflight: 1, InitialLimit: 1, MinLimit: 1, SojournCutoff: time.Second})
	ok, _, rel := c.AcquireSLO(OpRead, 2, 0)
	if !ok {
		t.Fatal("first acquire shed")
	}
	got := make(chan bool)
	go func() {
		ok, _, rel2 := c.AcquireSLO(OpRead, 2, 0)
		if ok {
			rel2(time.Millisecond)
		}
		got <- ok
	}()
	// Wait for the second request to actually queue before releasing.
	deadline := time.Now().Add(time.Second)
	for c.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	rel(time.Millisecond)
	if !<-got {
		t.Fatal("queued request was shed instead of admitted")
	}
	if st := c.Stats(); st.QueuedTotal != 1 || st.Sojourn.Count != 1 {
		t.Fatalf("queued_total=%d sojourn_count=%d, want 1/1", st.QueuedTotal, st.Sojourn.Count)
	}
}

func TestSojournCutoffSheds(t *testing.T) {
	c := New(Config{MaxInflight: 1, InitialLimit: 1, MinLimit: 1, SojournCutoff: 10 * time.Millisecond})
	ok, _, rel := c.AcquireSLO(OpRead, 2, 0)
	if !ok {
		t.Fatal("first acquire shed")
	}
	defer rel(time.Millisecond)
	start := time.Now()
	ok, reason, _ := c.AcquireSLO(OpRead, 2, 0)
	if ok {
		t.Fatal("second acquire admitted while the slot was held")
	}
	if reason != ReasonSojourn {
		t.Fatalf("reason = %v, want sojourn", reason)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("shed after %v, before the cutoff", waited)
	}
	st := c.Stats()
	if st.ShedByReason["sojourn"] != 1 || st.ShedBySub[2] != 1 {
		t.Fatalf("shed counters = %v / %v, want sojourn=1 sub2=1", st.ShedByReason, st.ShedBySub)
	}
}

func TestQueueFullDisplacesLowestPriority(t *testing.T) {
	c := New(Config{MaxInflight: 1, InitialLimit: 1, MinLimit: 1, QueueLimit: 1, SojournCutoff: time.Second})
	_, _, rel := c.AcquireSLO(OpRead, 4, 0)
	defer rel(time.Millisecond)

	cheapDone := make(chan Reason, 1)
	go func() {
		ok, reason, rel2 := c.AcquireSLO(OpRead, 0, 0) // cheap read queues
		if ok {
			rel2(time.Millisecond)
			reason = ReasonNone
		}
		cheapDone <- reason
	}()
	deadline := time.Now().Add(time.Second)
	for c.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cheap request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// An expensive read arrives at a full queue: it must displace the
	// cheap waiter, not be dropped.
	expDone := make(chan bool, 1)
	go func() {
		ok, _, rel3 := c.AcquireSLO(OpRead, 4, 0)
		if ok {
			rel3(time.Millisecond)
		}
		expDone <- ok
	}()
	if reason := <-cheapDone; reason != ReasonQueueFull {
		t.Fatalf("cheap waiter reason = %v, want queue_full displacement", reason)
	}
	rel(time.Millisecond)
	if !<-expDone {
		t.Fatal("expensive request was not admitted after displacing the cheap waiter")
	}

	// And an equal-priority arrival against a full queue is itself shed
	// without displacing the waiter already there.
	_, _, rel4 := c.AcquireSLO(OpRead, 4, 0)
	go c.AcquireSLO(OpRead, 4, 0) // fills the queue at high priority
	deadline = time.Now().Add(time.Second)
	for c.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("high-priority request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	ok, reason, _ := c.AcquireSLO(OpRead, 4, 0)
	if ok || reason != ReasonQueueFull {
		t.Fatalf("equal-priority arrival at full queue: ok=%v reason=%v, want shed queue_full", ok, reason)
	}
	rel4(time.Millisecond)
}

func TestTierEscalationAndPolicySheds(t *testing.T) {
	clk := newStubClock()
	c := New(Config{
		MaxInflight: 2, InitialLimit: 2, MinLimit: 1,
		QueueLimit: 8, SojournCutoff: time.Hour, TierHold: time.Minute,
		Now: clk.Now,
	})
	if c.Tier() != TierNormal {
		t.Fatalf("tier = %d at rest, want normal", c.Tier())
	}
	// Overload control off: consumers handed a nil controller's Tier read
	// normal.
	var off *Controller
	if tier := off.Tier; tier() != TierNormal {
		t.Fatalf("nil controller's tier = %d, want normal", tier())
	}
	// Saturate the limit: tier 1.
	_, _, rel1 := c.AcquireSLO(OpRead, 4, 0)
	_, _, rel2 := c.AcquireSLO(OpRead, 4, 0)
	if c.Tier() != TierStrained {
		t.Fatalf("tier = %d at limit, want strained (1)", c.Tier())
	}
	// Fill the queue past 25%: tier 2. Queue 2 of 8 = 25%.
	for i := 0; i < 2; i++ {
		go c.AcquireSLO(OpRead, 4, 0)
	}
	waitFor(t, func() bool { return c.Stats().Queued == 2 })
	if c.Tier() != TierShedding {
		t.Fatalf("tier = %d with queue at 25%%, want shedding (2)", c.Tier())
	}
	// At tier 2, a cheap read is shed outright; an expensive one queues.
	ok, reason, _ := c.AcquireSLO(OpRead, 1, 0)
	if ok || reason != ReasonPolicy {
		t.Fatalf("cheap read at tier 2: ok=%v reason=%v, want policy shed", ok, reason)
	}
	// A write still queues at tier 2.
	go c.AcquireSLO(OpWrite, 0, 0)
	waitFor(t, func() bool { return c.Stats().Queued == 3 })

	// Fill to 75%: tier 3. Need queue >= 6.
	for i := 0; i < 3; i++ {
		go c.AcquireSLO(OpRead, 4, 0)
	}
	waitFor(t, func() bool { return c.Stats().Queued == 6 })
	if c.Tier() != TierCritical {
		t.Fatalf("tier = %d with queue at 75%%, want critical (3)", c.Tier())
	}
	// At tier 3 writes and sub<3 reads are shed; sub 3-4 reads queue.
	if ok, reason, _ := c.AcquireSLO(OpWrite, 4, 0); ok || reason != ReasonPolicy {
		t.Fatalf("write at tier 3: ok=%v reason=%v, want policy shed", ok, reason)
	}
	if ok, reason, _ := c.AcquireSLO(OpRead, 2, 0); ok || reason != ReasonPolicy {
		t.Fatalf("sub-2 read at tier 3: ok=%v reason=%v, want policy shed", ok, reason)
	}

	// Close sheds every queued waiter so the test goroutines exit.
	c.Close()
	rel1(time.Millisecond)
	rel2(time.Millisecond)
}

func TestTierDecaysAfterHold(t *testing.T) {
	clk := newStubClock()
	c := New(Config{
		MaxInflight: 2, InitialLimit: 2, MinLimit: 2,
		QueueLimit: 8, TierHold: time.Second, Now: clk.Now,
	})
	// Saturate → tier 1, then go idle.
	_, _, rel1 := c.AcquireSLO(OpRead, 4, 0)
	_, _, rel2 := c.AcquireSLO(OpRead, 4, 0)
	if c.Tier() != TierStrained {
		t.Fatalf("tier = %d at limit, want 1", c.Tier())
	}
	rel1(time.Millisecond)
	rel2(time.Millisecond)
	// Hysteresis: still strained immediately after the pressure lifts.
	if c.Tier() != TierStrained {
		t.Fatalf("tier = %d right after drain, want 1 (hysteresis)", c.Tier())
	}
	clk.Advance(2 * time.Second)
	// Any admission event past TierHold decays the tier.
	_, _, rel3 := c.AcquireSLO(OpRead, 0, 0)
	rel3(time.Millisecond)
	if c.Tier() != TierNormal {
		t.Fatalf("tier = %d after hold elapsed, want 0", c.Tier())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAIMDLimitFollowsLatency(t *testing.T) {
	clk := newStubClock()
	c := New(Config{
		MaxInflight: 64, InitialLimit: 16, MinLimit: 2,
		Target: 10 * time.Millisecond, AdjustEvery: 100 * time.Millisecond,
		Now: clk.Now,
	})
	// Slow window: every request far over target → multiplicative decrease.
	for round := 0; round < 3; round++ {
		var rels []func(time.Duration)
		for i := 0; i < 16; i++ {
			ok, _, rel := c.AcquireSLO(OpRead, 4, 0)
			if !ok {
				break
			}
			rels = append(rels, rel)
		}
		clk.Advance(150 * time.Millisecond)
		for _, rel := range rels {
			rel(50 * time.Millisecond)
		}
	}
	down := c.Limit()
	if down >= 16 {
		t.Fatalf("limit = %d after slow windows, want < 16", down)
	}
	if st := c.Stats(); st.LimitDecreases == 0 {
		t.Fatal("no decrease steps recorded")
	}
	// Fast saturated windows → additive increase.
	for round := 0; round < 20; round++ {
		var rels []func(time.Duration)
		for i := 0; i < c.Limit(); i++ {
			ok, _, rel := c.AcquireSLO(OpRead, 4, 0)
			if !ok {
				break
			}
			rels = append(rels, rel)
		}
		clk.Advance(150 * time.Millisecond)
		for _, rel := range rels {
			rel(time.Millisecond)
		}
	}
	up := c.Limit()
	if up <= down {
		t.Fatalf("limit = %d after fast saturated windows, want > %d", up, down)
	}
	if up > 64 {
		t.Fatalf("limit = %d exceeds MaxInflight", up)
	}
	if st := c.Stats(); st.LimitIncreases == 0 {
		t.Fatal("no increase steps recorded")
	}
}

// TestLimiterSteersOnP99: Target is a p99. A window whose p95 is well under
// the target but whose p99 is over it cuts the limit.
func TestLimiterSteersOnP99(t *testing.T) {
	clk := newStubClock()
	c := New(Config{
		MaxInflight: 128, InitialLimit: 100, MinLimit: 2,
		Target: 10 * time.Millisecond, AdjustEvery: 100 * time.Millisecond,
		Now: clk.Now,
	})
	var rels []func(time.Duration)
	for i := 0; i < 100; i++ {
		ok, _, rel := c.AcquireSLO(OpRead, 4, 0)
		if !ok {
			t.Fatalf("request %d refused under the limit", i)
		}
		rels = append(rels, rel)
	}
	// 97 fast, 3 slow: p95 is 1 ms, p99 is 50 ms.
	for i, rel := range rels {
		lat := time.Millisecond
		if i >= 97 {
			lat = 50 * time.Millisecond
		}
		rel(lat)
	}
	clk.Advance(150 * time.Millisecond)
	_, _, rel := c.AcquireSLO(OpRead, 4, 0)
	rel(time.Millisecond) // closes the window
	if st := c.Stats(); st.Limit >= 100 || st.LimitDecreases != 1 {
		t.Fatalf("limit = %d after %d cuts, want one cut below 100: a 50 ms p99 is over the 10 ms target", st.Limit, st.LimitDecreases)
	}
}

func TestCloseShedsWaiters(t *testing.T) {
	c := New(Config{MaxInflight: 1, InitialLimit: 1, MinLimit: 1, SojournCutoff: time.Hour})
	_, _, rel := c.AcquireSLO(OpRead, 2, 0)
	defer rel(time.Millisecond)
	done := make(chan Reason, 1)
	go func() {
		_, reason, _ := c.AcquireSLO(OpRead, 2, 0)
		done <- reason
	}()
	waitFor(t, func() bool { return c.Stats().Queued == 1 })
	c.Close()
	if reason := <-done; reason != ReasonClosed {
		t.Fatalf("waiter reason = %v after Close, want closed", reason)
	}
	if ok, reason, _ := c.AcquireSLO(OpRead, 2, 0); ok || reason != ReasonClosed {
		t.Fatalf("acquire after Close: ok=%v reason=%v", ok, reason)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Reads rank by subclass; writes sit between sub-1 and sub-2 reads.
	if !(priorityFor(OpRead, 0) < priorityFor(OpRead, 1) &&
		priorityFor(OpRead, 1) < priorityFor(OpWrite, 0) &&
		priorityFor(OpWrite, 0) < priorityFor(OpRead, 2) &&
		priorityFor(OpRead, 2) < priorityFor(OpRead, 3) &&
		priorityFor(OpRead, 3) < priorityFor(OpRead, 4)) {
		t.Fatalf("priority ordering broken: r0=%d r1=%d w=%d r2=%d r3=%d r4=%d",
			priorityFor(OpRead, 0), priorityFor(OpRead, 1), priorityFor(OpWrite, 0),
			priorityFor(OpRead, 2), priorityFor(OpRead, 3), priorityFor(OpRead, 4))
	}
}

func TestConcurrentChurnRaceClean(t *testing.T) {
	c := New(Config{MaxInflight: 8, InitialLimit: 4, MinLimit: 2,
		QueueLimit: 16, SojournCutoff: 2 * time.Millisecond,
		Target: time.Millisecond, AdjustEvery: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				op := OpRead
				if g%4 == 0 {
					op = OpWrite
				}
				ok, _, rel := c.AcquireSLO(op, g%5, 0)
				if ok {
					rel(time.Duration(g%3) * time.Millisecond)
				}
				_ = c.Tier()
				if i%10 == 0 {
					_ = c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("residual inflight=%d queued=%d", st.Inflight, st.Queued)
	}
	if st.Admitted+st.ShedTotal != 32*50 {
		t.Fatalf("admitted %d + shed %d != %d requests", st.Admitted, st.ShedTotal, 32*50)
	}
	if st.PeakInflight > 8 {
		t.Fatalf("peak inflight %d exceeded ceiling 8", st.PeakInflight)
	}
}

// BenchmarkAcquireRelease is the controller's cost on every data command of
// a server with overload control on: one admission and its release, from
// every P at once, on a controller whose limit never binds (tier normal).
func BenchmarkAcquireRelease(b *testing.B) {
	c := New(Config{MaxInflight: 1 << 20})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ok, _, release := c.AcquireSLO(OpRead, 2, 0)
			if !ok {
				b.Error("a calm controller shed")
				return
			}
			release(time.Microsecond)
		}
	})
}
