package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pamakv/internal/kv"
)

func TestHotCacheBasic(t *testing.T) {
	h := NewHotCache(1<<20, time.Minute)
	if _, _, ok := h.Get("k", nil); ok {
		t.Fatal("empty cache hit")
	}
	h.Put("k", 7, []byte("value"))
	v, flags, ok := h.Get("k", nil)
	if !ok || string(v) != "value" || flags != 7 {
		t.Fatalf("Get = (%q, %d, %v)", v, flags, ok)
	}
	h.Invalidate("k")
	if _, _, ok := h.Get("k", nil); ok {
		t.Fatal("hit after Invalidate")
	}
	st := h.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Items != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStatsPublishLiveCounters: the hot cache's and a peer client's Stats
// publish their live counter sets, each counter once, under its json name
// and in declaration order; the breaker counts its openings in the
// client's set.
func TestStatsPublishLiveCounters(t *testing.T) {
	h := NewHotCache(4, time.Minute)
	for _, k := range []string{"a", "b", "c", "d"} {
		h.Put(k, 0, []byte("123")) // each Put evicts the one before
	}
	h.Get("d", nil)
	h.Get("a", nil)
	h.Get("b", nil)
	h.Invalidate("d")
	c := NewClient("127.0.0.1:1", ClientOptions{Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute}})
	defer c.Close()
	*c.ctr = ClientCounters{4, 5, 6, 7, 8, 9}
	c.br.failure()
	for _, tc := range []struct {
		stats any
		want  string
	}{
		{h.Stats(), `{"hits":1,"misses":2,"evicts":3,"bytes":0,"items":0}`},
		{c.Stats(), `{"requests":4,"errors":5,"retries":6,"dials":7,"fast_fails":8,"breaker_opens":10,"breaker_open":true,"latency":`},
	} {
		b, err := json.Marshal(tc.stats)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), tc.want) {
			t.Errorf("Stats JSON = %s, want it to start %s", b, tc.want)
		}
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
	if _, _, ok := h.Get("k7", nil); !ok {
		t.Error("most recent entry evicted")
	}
	if _, _, ok := h.Get("k0", nil); ok {
		t.Error("oldest entry survived 2x overcommit")
	}
	// Oversized values are refused outright.
	h.Put("huge", 0, make([]byte, 1024))
	if _, _, ok := h.Get("huge", nil); ok {
		t.Error("value above the whole budget was cached")
	}
}

func TestHotCacheValueIsCopied(t *testing.T) {
	h := NewHotCache(1<<20, time.Minute)
	buf := []byte("abc")
	h.Put("k", 0, buf)
	buf[0] = 'X'
	if v, _, _ := h.Get("k", nil); string(v) != "abc" {
		t.Fatalf("cached value aliased the caller's buffer: %q", v)
	}
}

func TestPeersRoutingAndMembership(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	p, err := New(Config{Self: "a:1", Members: members})
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
		if p.Owner(k) == p.Self() {
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
		if p.Owner(k) == p.Self() {
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

// TestHotCacheRefusedPutDropsStaleCopy: a value too large to cache still
// supersedes the copy this node holds, so the next Get must go to the owner.
func TestHotCacheRefusedPutDropsStaleCopy(t *testing.T) {
	h := NewHotCache(64, time.Minute)
	h.Put("k", 0, []byte("old"))
	h.Put("k", 0, make([]byte, 100))
	if v, _, ok := h.Get("k", nil); ok {
		t.Fatalf("served %q after a refused Put of a newer value", v)
	}
	if st := h.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry retained: %+v", st)
	}
}

// TestHotCacheAllocs: once every slot has its buffer, storing and reading
// same-size values allocates nothing.
func TestHotCacheAllocs(t *testing.T) {
	h := NewHotCache(1<<20, time.Minute)
	ks := keys(64)
	val := make([]byte, 100)
	for _, k := range ks {
		h.Put(k, 0, val)
	}
	dst := make([]byte, 0, 128)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := ks[i%len(ks)]
		h.Put(k, 1, val)
		dst, _, _ = h.Get(k, dst[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Put+Get made %v allocations, want 0", allocs)
	}
}

// TestHotCacheConcurrent: under concurrent Puts, Gets, Invalidates and
// prefetches past the byte budget, every value a Get returns is the bytes
// some Put wrote for that key. Run it with -race.
func TestHotCacheConcurrent(t *testing.T) {
	const (
		workers = 4
		ops     = 5000
		nkeys   = 32
	)
	// value renders version v of key k; its length varies with v, so slots
	// are reused across sizes.
	value := func(k string, v int) []byte {
		b := []byte(k + "=" + strconv.Itoa(v) + ";")
		return append(b, bytes.Repeat([]byte{byte('a' + v%26)}, v%40)...)
	}
	h := NewHotCache(1500, time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := "k" + strconv.Itoa(rng.Intn(nkeys))
				if rng.Intn(10) == 0 {
					h.Invalidate(k)
					continue
				}
				h.Put(k, 0, value(k, rng.Intn(1000)))
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var dst []byte
			var hs [4]uint64
			for i := 0; i < ops; i++ {
				k := "k" + strconv.Itoa(rng.Intn(nkeys))
				if rng.Intn(4) == 0 {
					for j := range hs {
						hs[j] = kv.HashString("k" + strconv.Itoa(rng.Intn(nkeys)))
					}
					h.PrefetchHashes(hs[:])
				}
				var ok bool
				if dst, _, ok = h.Get(k, dst[:0]); !ok {
					continue
				}
				head, _, found := strings.Cut(string(dst), ";")
				name, ver, _ := strings.Cut(head, "=")
				v, err := strconv.Atoi(ver)
				if !found || name != k || err != nil || !bytes.Equal(dst, value(k, v)) {
					t.Errorf("Get(%s) = %q: not a value any Put wrote for it", k, dst)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := h.Stats(); st.Bytes > 1500 || st.Items > nkeys {
		t.Fatalf("after the storm: %+v", st)
	}
}
