package cluster

import (
	"fmt"
	"testing"
	"time"
)

func TestHotCacheBasic(t *testing.T) {
	h := NewHotCache(1<<20, time.Minute)
	if _, _, ok := h.Get("k"); ok {
		t.Fatal("empty cache hit")
	}
	h.Put("k", 7, []byte("value"))
	v, flags, ok := h.Get("k")
	if !ok || string(v) != "value" || flags != 7 {
		t.Fatalf("Get = (%q, %d, %v)", v, flags, ok)
	}
	h.Invalidate("k")
	if _, _, ok := h.Get("k"); ok {
		t.Fatal("hit after Invalidate")
	}
	st := h.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Items != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHotCacheTTL(t *testing.T) {
	h := NewHotCache(1<<20, 50*time.Millisecond)
	now := time.Unix(5000, 0)
	h.now = func() time.Time { return now }
	h.Put("k", 0, []byte("v"))
	if _, _, ok := h.Get("k"); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(time.Second)
	if _, _, ok := h.Get("k"); ok {
		t.Fatal("expired entry hit")
	}
	if st := h.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("expired entry retained: %+v", st)
	}
}

func TestHotCacheEvictsLRUUnderBudget(t *testing.T) {
	// Budget for ~4 entries of 100B values (plus keys).
	h := NewHotCache(420, time.Minute)
	val := make([]byte, 100)
	for i := 0; i < 8; i++ {
		h.Put(fmt.Sprintf("k%d", i), 0, val)
	}
	st := h.Stats()
	if st.Bytes > 420 {
		t.Fatalf("over budget: %+v", st)
	}
	if st.Evicts == 0 {
		t.Fatal("no evictions despite 2x overcommit")
	}
	// The most recent entry survives; the oldest is gone.
	if _, _, ok := h.Get("k7"); !ok {
		t.Error("most recent entry evicted")
	}
	if _, _, ok := h.Get("k0"); ok {
		t.Error("oldest entry survived 2x overcommit")
	}
	// Oversized values are refused outright.
	h.Put("huge", 0, make([]byte, 1024))
	if _, _, ok := h.Get("huge"); ok {
		t.Error("value above the whole budget was cached")
	}
}

func TestHotCacheValueIsCopied(t *testing.T) {
	h := NewHotCache(1<<20, time.Minute)
	buf := []byte("abc")
	h.Put("k", 0, buf)
	buf[0] = 'X'
	if v, _, _ := h.Get("k"); string(v) != "abc" {
		t.Fatalf("cached value aliased the caller's buffer: %q", v)
	}
}

func TestPeersRoutingAndMembership(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	p, err := New(Config{Self: "a:1", Members: members, VNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.Self() != "a:1" {
		t.Fatalf("Self = %q", p.Self())
	}
	if got := p.Members(); len(got) != 3 {
		t.Fatalf("Members = %v", got)
	}
	if p.ClientFor("a:1") != nil {
		t.Fatal("ClientFor(self) should be nil")
	}
	if p.ClientFor("b:2") == nil || p.ClientFor("c:3") == nil {
		t.Fatal("missing remote clients")
	}
	// Ownership must agree with a standalone ring over the same members.
	ring := NewRing(members, 64)
	owned := 0
	for _, k := range keys(1000) {
		if p.Owner(k) != ring.Owner(k) {
			t.Fatalf("Peers and Ring disagree on %q", k)
		}
		if p.IsOwner(k) {
			owned++
		}
	}
	if owned == 0 || owned == 1000 {
		t.Fatalf("self owns %d/1000 keys, want a proper share", owned)
	}

	// Dropping c:3 closes its client and reroutes its keys to survivors.
	cClient := p.ClientFor("c:3")
	if err := p.SetMembers([]string{"a:1", "b:2"}); err != nil {
		t.Fatal(err)
	}
	if p.ClientFor("c:3") != nil {
		t.Fatal("departed member still has a client")
	}
	if _, err := cClient.Get("k", false, 0); err == nil {
		t.Fatal("departed member's client still usable")
	}
	for _, k := range keys(1000) {
		if o := p.Owner(k); o != "a:1" && o != "b:2" {
			t.Fatalf("key %q routed to departed member %q", k, o)
		}
	}
	// Removing self enters proxy mode: the node owns nothing and routes
	// everything to the remaining members (a draining node's state).
	if err := p.SetMembers([]string{"b:2"}); err != nil {
		t.Fatalf("SetMembers without self: %v", err)
	}
	for _, k := range keys(100) {
		if p.IsOwner(k) {
			t.Fatalf("proxy-mode node still owns %q", k)
		}
		if o := p.Owner(k); o != "b:2" {
			t.Fatalf("proxy-mode key %q routed to %q, want b:2", k, o)
		}
	}
	if p.ClientFor("b:2") == nil {
		t.Fatal("proxy-mode node lost its client for the surviving member")
	}
	// An empty member list is refused outright.
	if err := p.SetMembers(nil); err == nil {
		t.Fatal("empty member list accepted")
	}
}

func TestPeersConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: "", Members: []string{"a:1"}}); err == nil {
		t.Fatal("empty Self accepted")
	}
	if _, err := New(Config{Self: "x:9", Members: []string{"a:1"}}); err == nil {
		t.Fatal("Self outside Members accepted")
	}
	// The ring is the only owner function.
	for _, hash := range []string{"", "ring"} {
		p, err := New(Config{Self: "a:1", Members: []string{"a:1"}, Hash: hash})
		if err != nil {
			t.Fatalf("Hash %q refused: %v", hash, err)
		}
		p.Close()
	}
	for _, hash := range []string{"rendezvous", "nope"} {
		if _, err := New(Config{Self: "a:1", Members: []string{"a:1"}, Hash: hash}); err == nil {
			t.Fatalf("Hash %q accepted", hash)
		}
	}
}

func TestPeersSnapshots(t *testing.T) {
	peer := newFakePeer(t)
	p, err := New(Config{Self: "self:0", Members: []string{"self:0", peer.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	peer.set("k", []byte("v"))
	if _, err := p.ClientFor(peer.addr()).Get("k", false, 0); err != nil {
		t.Fatal(err)
	}
	snaps := p.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("Snapshots = %v", snaps)
	}
	st := snaps[peer.addr()]
	if st.Requests != 1 || st.Latency.Count != 1 {
		t.Fatalf("peer stats %+v", st)
	}
}
