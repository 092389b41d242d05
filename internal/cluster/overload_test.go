package cluster

import (
	"testing"
	"time"

	"pamakv/internal/proto"
)

// TestShedReplyNotBreakerFailure: a peer that is shedding load answers with
// SERVER_ERROR busy (shed) — a complete, parsed response. Those replies must
// count as breaker successes, not failures: an overloaded-but-alive peer is
// not a dead peer, and tripping the circuit on sheds would turn a load spike
// into a spurious partition.
func TestShedReplyNotBreakerFailure(t *testing.T) {
	peer := newFakePeer(t)
	peer.shedAll.Store(true)
	c := NewClient(peer.addr(), ClientOptions{
		Retries: -1,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute},
	})
	defer c.Close()

	for i := 0; i < 20; i++ {
		resp, err := c.Get("k", false, 0)
		if err != nil {
			t.Fatalf("op %d: shed reply surfaced as transport error: %v", i, err)
		}
		if resp.Status != proto.StatusServerError || resp.Message != proto.ShedMsg {
			t.Fatalf("op %d: response %q %q is not the shed reply", i, resp.Status, resp.Message)
		}
	}
	st := c.Stats()
	if st.BreakerOpens != 0 || st.BreakerOpen {
		t.Fatalf("breaker tripped on shed replies: opens=%d open=%v", st.BreakerOpens, st.BreakerOpen)
	}
	if st.Errors != 0 {
		t.Fatalf("shed replies counted as errors: %d", st.Errors)
	}

	// The moment the peer stops shedding, the same client serves normally
	// — no cooldown to wait out, because the circuit never opened.
	peer.shedAll.Store(false)
	peer.set("k", []byte("v"))
	resp, err := c.Get("k", false, 0)
	if err != nil || len(resp.Values) != 1 {
		t.Fatalf("recovery get = %+v, %v", resp, err)
	}
}

// TestClientDegradedHalvesRetries: degraded mode must cut the transport
// retry budget in half so an overloaded node does not amplify its own load
// onto struggling peers.
func TestClientDegradedHalvesRetries(t *testing.T) {
	peer := newFakePeer(t)
	peer.dropAll.Store(true)
	c := NewClient(peer.addr(), ClientOptions{Retries: 2, DialTimeout: 200 * time.Millisecond})
	defer c.Close()

	retriesAfter := func() uint64 {
		c.Do([]byte("get k\r\n")) // fails after the retry budget
		return c.Stats().Retries
	}
	if got := retriesAfter(); got != 2 {
		t.Fatalf("healthy op used %d retries, want the full budget of 2", got)
	}
	c.SetDegraded(true)
	if !c.Degraded() {
		t.Fatal("Degraded() = false after SetDegraded(true)")
	}
	if got := retriesAfter() - 2; got != 1 {
		t.Fatalf("degraded op used %d retries, want the halved budget of 1", got)
	}
	c.SetDegraded(false)
	if got := retriesAfter() - 3; got != 2 {
		t.Fatalf("recovered op used %d retries, want 2 again", got)
	}
}

// TestPeersDegradedReachesEveryClient: while the local node sheds, the
// degraded flag reaches every peer client, including ones created by a later
// SetMembers, and clearing it clears every one.
func TestPeersDegradedReachesEveryClient(t *testing.T) {
	members := []string{"127.0.0.1:11", "127.0.0.1:12", "127.0.0.1:13"}
	p, err := New(Config{Self: members[0], Members: members})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.Degraded() {
		t.Fatal("a new routing table starts degraded")
	}
	p.SetDegraded(true)
	if !p.Degraded() {
		t.Fatal("Degraded() = false after SetDegraded(true)")
	}
	for _, m := range members[1:] {
		if c := p.ClientFor(m); c == nil || !c.Degraded() {
			t.Fatalf("client for %s did not inherit degraded mode", m)
		}
	}

	// A membership change mid-shed: the replacement client must inherit
	// the degraded flag, not reset it.
	added := "127.0.0.1:14"
	if err := p.SetMembers(append(members, added)); err != nil {
		t.Fatal(err)
	}
	if c := p.ClientFor(added); c == nil || !c.Degraded() {
		t.Fatal("client added during shedding did not inherit degraded mode")
	}

	p.SetDegraded(false)
	if p.Degraded() {
		t.Fatal("Degraded() = true after SetDegraded(false)")
	}
	for _, m := range append(members[1:], added) {
		if c := p.ClientFor(m); c.Degraded() {
			t.Fatalf("client for %s still degraded after SetDegraded(false)", m)
		}
	}
}
