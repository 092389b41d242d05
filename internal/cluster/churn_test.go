package cluster

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"
)

// countFDs returns the number of open file descriptors, or -1 where
// /proc is unavailable (non-Linux).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// waitSteady polls fn until it returns a value <= want or the deadline
// passes, returning the last observation. Connection teardown is
// asynchronous (reader goroutines notice the close), so leak checks
// must tolerate a settling window.
func waitSteady(want int, fn func() int) int {
	deadline := time.Now().Add(2 * time.Second)
	last := fn()
	for last > want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		last = fn()
	}
	return last
}

// TestSetMembersChurnNoLeaks drives repeated member add/remove cycles
// with live traffic and asserts goroutines and file descriptors return
// to baseline: departed members' clients must close their pooled AND
// in-flight connections promptly, not strand them until GC.
func TestSetMembersChurnNoLeaks(t *testing.T) {
	peerA := newFakePeer(t)
	peerB := newFakePeer(t)
	peerA.set("k", []byte("v"))
	peerB.set("k", []byte("v"))

	p, err := New(Config{Self: "self:0", Members: []string{"self:0", peerA.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Prime one connection so the baseline includes a warm pool.
	if _, err := p.ClientFor(peerA.addr()).Get("k", false, 0); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	baseGoros := runtime.NumGoroutine()
	baseFDs := countFDs()

	for i := 0; i < 25; i++ {
		// Add B, touch it so a real connection opens, then drop it again.
		if err := p.SetMembers([]string{"self:0", peerA.addr(), peerB.addr()}); err != nil {
			t.Fatalf("cycle %d add: %v", i, err)
		}
		if _, err := p.ClientFor(peerB.addr()).Get("k", false, 0); err != nil {
			t.Fatalf("cycle %d get via B: %v", i, err)
		}
		if err := p.SetMembers([]string{"self:0", peerA.addr()}); err != nil {
			t.Fatalf("cycle %d remove: %v", i, err)
		}
		if p.ClientFor(peerB.addr()) != nil {
			t.Fatalf("cycle %d: departed member still has a client", i)
		}
	}

	runtime.GC()
	// Allow a little slack: test runtime internals and the fake peers'
	// accept loops fluctuate by a few goroutines.
	if g := waitSteady(baseGoros+3, runtime.NumGoroutine); g > baseGoros+3 {
		t.Errorf("goroutines leaked across churn: %d -> %d", baseGoros, g)
	}
	if baseFDs >= 0 {
		if f := waitSteady(baseFDs+3, countFDs); f > baseFDs+3 {
			t.Errorf("file descriptors leaked across churn: %d -> %d", baseFDs, f)
		}
	}
}

// TestSetMembersClosesInFlight: removing a member must fail that
// member's in-flight requests promptly instead of letting them run to
// their own timeout against a node we no longer route to.
func TestSetMembersClosesInFlight(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	p, err := New(Config{Self: "self:0", Members: []string{"self:0", peer.addr()},
		Client: ClientOptions{Retries: -1, OpTimeout: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	cl := p.ClientFor(peer.addr())
	if _, err := cl.Get("k", false, 0); err != nil {
		t.Fatal(err) // prime the pool
	}
	peer.delay.Store(int64(10 * time.Second))
	done := make(chan error, 1)
	go func() {
		_, err := cl.Get("k", false, 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the peer
	start := time.Now()
	if err := p.SetMembers([]string{"self:0"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight request to a removed member succeeded after close")
		}
		if e := time.Since(start); e > 2*time.Second {
			t.Errorf("in-flight request took %v to fail after removal, want prompt", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request still blocked 5s after member removal")
	}
	// The closed client refuses new work outright.
	if _, err := cl.Get("k", false, 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("removed member's client Get = %v, want ErrClientClosed", err)
	}
}

// TestSetMembersSingleNodeRing: shrinking to just self must leave a
// working ring where self owns every key and holds no peer clients.
func TestSetMembersSingleNodeRing(t *testing.T) {
	p, err := New(Config{Self: "a:1", Members: []string{"a:1", "b:2", "c:3"}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SetMembers([]string{"a:1"}); err != nil {
		t.Fatalf("shrink to single node: %v", err)
	}
	if got := p.Members(); len(got) != 1 || got[0] != "a:1" {
		t.Fatalf("Members = %v, want [a:1]", got)
	}
	for _, k := range keys(200) {
		if p.Owner(k) != p.Self() {
			t.Fatalf("single-node ring does not own %q", k)
		}
	}
	if len(p.Snapshots()) != 0 {
		t.Fatalf("single-node ring still holds peer clients: %v", p.Snapshots())
	}
}

// TestSetMembersDuplicateAddresses: duplicate entries collapse to one
// member with one client, and routing matches the deduplicated list.
func TestSetMembersDuplicateAddresses(t *testing.T) {
	p, err := New(Config{Self: "a:1", Members: []string{"a:1", "b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.SetMembers([]string{"b:2", "a:1", "b:2", "a:1", "b:2"}); err != nil {
		t.Fatalf("duplicate member list: %v", err)
	}
	if got := p.Members(); len(got) != 2 {
		t.Fatalf("Members = %v, want 2 deduplicated entries", got)
	}
	if len(p.Snapshots()) != 1 {
		t.Fatalf("want exactly one remote client, have %d", len(p.Snapshots()))
	}
	ring := NewRing([]string{"a:1", "b:2"}, 0)
	for _, k := range keys(200) {
		if p.Owner(k) != ring.Owner(k) {
			t.Fatalf("duplicated list routes %q differently from deduplicated ring", k)
		}
	}
}

// TestSetMembersReAddResetsBreaker: a member that left with an open
// circuit breaker must come back with a fresh (closed) one — the old
// failure history belongs to the old incarnation.
func TestSetMembersReAddResetsBreaker(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	p, err := New(Config{Self: "self:0", Members: []string{"self:0", peer.addr()},
		Client: ClientOptions{
			Retries:     -1,
			DialTimeout: 200 * time.Millisecond,
			Breaker:     BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	peer.dropAll.Store(true)
	cl := p.ClientFor(peer.addr())
	for i := 0; i < 2; i++ {
		if _, err := cl.Get("k", false, 0); err == nil {
			t.Fatalf("Get %d succeeded against dropping peer", i)
		}
	}
	if !cl.Stats().BreakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}
	// Remove and re-add: the hour-long cooldown must not follow it back.
	if err := p.SetMembers([]string{"self:0"}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetMembers([]string{"self:0", peer.addr()}); err != nil {
		t.Fatal(err)
	}
	peer.dropAll.Store(false)
	fresh := p.ClientFor(peer.addr())
	if fresh == cl {
		t.Fatal("re-added member reused the departed client")
	}
	if fresh.Stats().BreakerOpen {
		t.Fatal("re-added member inherited an open breaker")
	}
	if _, err := fresh.Get("k", false, 0); err != nil {
		t.Fatalf("re-added member unusable: %v", err)
	}
}
