package overload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAcquireSLOCrossTenantOrdering pins the multi-tenant shed ordering at
// each tier: the SLO class demotes a request's effective penalty subclass,
// so at the same true subclass a best-effort tenant sheds where a premium
// tenant queues, while shed attribution keeps the true subclass and counts
// the SLO class.
func TestAcquireSLOCrossTenantOrdering(t *testing.T) {
	clk := newStubClock()
	c := New(Config{
		MaxInflight: 2, InitialLimit: 2, MinLimit: 1,
		QueueLimit: 8, SojournCutoff: time.Hour, TierHold: time.Minute,
		Now: clk.Now,
	})
	// Saturate the limit, then fill the queue past 25%: tier 2.
	_, _, rel1 := c.AcquireSLO(OpRead, 4, 0)
	_, _, rel2 := c.AcquireSLO(OpRead, 4, 0)
	for i := 0; i < 2; i++ {
		go c.AcquireSLO(OpRead, 4, 0)
	}
	waitFor(t, func() bool { return c.Stats().Queued == 2 })
	if c.Tier() != TierShedding {
		t.Fatalf("tier = %d, want shedding (2)", c.Tier())
	}

	// Same true subclass 3: premium (slo 0) queues, best-effort (slo 2) is
	// demoted to effective subclass 1 — cheap — and policy-shed.
	go c.AcquireSLO(OpRead, 3, 0)
	waitFor(t, func() bool { return c.Stats().Queued == 3 })
	ok, reason, _ := c.AcquireSLO(OpRead, 3, 2)
	if ok || reason != ReasonPolicy {
		t.Fatalf("best-effort sub-3 read at tier 2: ok=%v reason=%v, want policy shed", ok, reason)
	}
	st := c.Stats()
	if st.ShedBySub[3] != 1 {
		t.Fatalf("shed attributed to effective, not true, subclass: %v", st.ShedBySub)
	}
	if st.ShedBySLO[2] != 1 {
		t.Fatalf("shed not counted by SLO class: %v", st.ShedBySLO)
	}

	// Escalate to tier 3 (queue >= 75%).
	for i := 0; i < 3; i++ {
		go c.AcquireSLO(OpRead, 4, 0)
	}
	waitFor(t, func() bool { return c.Stats().Queued == 6 })
	if c.Tier() != TierCritical {
		t.Fatalf("tier = %d, want critical (3)", c.Tier())
	}
	// Subclass 4: premium still queues; one SLO class of demotion (slo 2
	// -> effective 2) drops it below the protected band.
	go c.AcquireSLO(OpRead, 4, 0)
	waitFor(t, func() bool { return c.Stats().Queued == 7 })
	if ok, reason, _ := c.AcquireSLO(OpRead, 4, 2); ok || reason != ReasonPolicy {
		t.Fatalf("best-effort sub-4 read at tier 3: ok=%v reason=%v, want policy shed", ok, reason)
	}

	// Fetch suppression mirrors the demotion.
	if c.ShedFetchSLO(4, 0) {
		t.Fatal("premium sub-4 fetch suppressed at tier 3")
	}
	if !c.ShedFetchSLO(4, 2) {
		t.Fatal("best-effort sub-4 fetch not suppressed at tier 3")
	}

	c.Close()
	rel1(time.Millisecond)
	rel2(time.Millisecond)
}

// TestAcquireSLOClamps pins that out-of-range SLO classes are clamped, not
// indexed out of bounds.
func TestAcquireSLOClamps(t *testing.T) {
	c := New(Config{MaxInflight: 4})
	if ok, _, rel := c.AcquireSLO(OpRead, 2, -5); !ok {
		t.Fatal("negative slo rejected")
	} else {
		rel(time.Millisecond)
	}
	if ok, _, rel := c.AcquireSLO(OpRead, 2, 99); !ok {
		t.Fatal("huge slo rejected")
	} else {
		rel(time.Millisecond)
	}
	if c.ShedFetchSLO(0, 99) {
		t.Fatal("huge slo suppressed a fetch at tier 0")
	}
}

// TestOverloadStormShedOrdering is the storm variant: premium (slo 0) and
// best-effort (slo 3) clients hammer a tiny controller concurrently with the
// same true penalty subclass. Under sustained pressure the best-effort
// tenant's shed rate must exceed the premium tenant's — the cross-tenant
// ordering holds statistically under real contention, not just in the
// single-threaded tier walkthrough. Run with -race.
func TestOverloadStormShedOrdering(t *testing.T) {
	c := New(Config{
		MaxInflight: 4, InitialLimit: 4, MinLimit: 2,
		QueueLimit: 8, SojournCutoff: 2 * time.Millisecond,
		TierHold: 10 * time.Second, // once strained, stay strained for the whole storm
	})
	const (
		workers    = 4
		perWorker  = 400
		sub        = 2 // 10-100ms band: shed when demoted, protected when not
		premiumSLO = 0
		bulkSLO    = 3
	)
	var (
		wg                                 sync.WaitGroup
		premOK, premShed, bulkOK, bulkShed atomic.Uint64
		launch                             = make(chan struct{})
	)
	storm := func(slo int, okC, shedC *atomic.Uint64) {
		defer wg.Done()
		<-launch
		for i := 0; i < perWorker; i++ {
			ok, _, rel := c.AcquireSLO(OpRead, sub, slo)
			if ok {
				okC.Add(1)
				time.Sleep(50 * time.Microsecond) // hold the slot: sustain pressure
				rel(50 * time.Microsecond)
			} else {
				shedC.Add(1)
			}
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go storm(premiumSLO, &premOK, &premShed)
		go storm(bulkSLO, &bulkOK, &bulkShed)
	}
	close(launch)
	wg.Wait()

	premTotal := premOK.Load() + premShed.Load()
	bulkTotal := bulkOK.Load() + bulkShed.Load()
	premRate := float64(premShed.Load()) / float64(premTotal)
	bulkRate := float64(bulkShed.Load()) / float64(bulkTotal)
	t.Logf("premium shed %.3f (%d/%d), best-effort shed %.3f (%d/%d), tier %d",
		premRate, premShed.Load(), premTotal, bulkRate, bulkShed.Load(), bulkTotal, c.Tier())
	if bulkShed.Load() == 0 {
		t.Fatal("storm never shed best-effort traffic; no pressure was generated")
	}
	if bulkRate <= premRate {
		t.Fatalf("best-effort shed rate %.3f not above premium %.3f — SLO ordering failed under storm",
			bulkRate, premRate)
	}
	st := c.Stats()
	if st.ShedBySLO[bulkSLO] <= st.ShedBySLO[premiumSLO] {
		t.Fatalf("ShedBySLO ordering wrong: %v", st.ShedBySLO)
	}
	if st.PeakInflight > DefaultMaxInflight {
		t.Fatalf("peak inflight %d exceeded ceiling", st.PeakInflight)
	}
}
