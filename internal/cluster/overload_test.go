package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"pamakv/internal/overload"
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

// fakeTier is an overload tier source for Config.Tier: normal until set.
type fakeTier struct{ tier atomic.Int32 }

func (f *fakeTier) Tier() int { return int(f.tier.Load()) }

// TestClientDegradedHalvesRetries: while the local tier is strained or worse
// the transport retry budget halves, so an overloaded node does not amplify
// its own load onto struggling peers; calm restores it.
func TestClientDegradedHalvesRetries(t *testing.T) {
	peer := newFakePeer(t)
	peer.dropAll.Store(true)
	var src fakeTier
	self := "127.0.0.1:1"
	p, err := New(Config{
		Self: self, Members: []string{self, peer.addr()},
		Client: ClientOptions{Retries: 2, DialTimeout: 200 * time.Millisecond},
		Tier:   src.Tier,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := p.ClientFor(peer.addr())

	retriesAfter := func() uint64 {
		c.Do([]byte("get k\r\n")) // fails after the retry budget
		return c.Stats().Retries
	}
	if got := retriesAfter(); got != 2 {
		t.Fatalf("calm op used %d retries, want the full budget of 2", got)
	}
	src.tier.Store(overload.TierStrained)
	if got := retriesAfter() - 2; got != 1 {
		t.Fatalf("strained op used %d retries, want the halved budget of 1", got)
	}
	src.tier.Store(overload.TierNormal)
	if got := retriesAfter() - 3; got != 2 {
		t.Fatalf("calm op used %d retries, want 2 again", got)
	}
}

// TestPeersDegradedReachesEveryClient: every peer client reads the one tier
// source, including a client created by a SetMembers while strained, and
// calm restores every budget.
func TestPeersDegradedReachesEveryClient(t *testing.T) {
	members := []string{"127.0.0.1:11", "127.0.0.1:12", "127.0.0.1:13"}
	var src fakeTier
	p, err := New(Config{Self: members[0], Members: members, Client: ClientOptions{Retries: 2}, Tier: src.Tier})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	budgets := func(want int, ms []string) {
		t.Helper()
		for _, m := range ms {
			c := p.ClientFor(m)
			if c == nil {
				t.Fatalf("no client for %s", m)
			}
			if got := c.retryBudget(); got != want {
				t.Fatalf("client for %s at tier %d: retry budget %d, want %d", m, src.Tier(), got, want)
			}
		}
	}
	budgets(2, members[1:])
	src.tier.Store(overload.TierStrained)
	budgets(1, members[1:])

	// A membership change mid-shed: the new client reads the same tier.
	added := "127.0.0.1:14"
	if err := p.SetMembers(append(members, added)); err != nil {
		t.Fatal(err)
	}
	budgets(1, append(members[1:], added))

	src.tier.Store(overload.TierNormal)
	budgets(2, append(members[1:], added))
}
