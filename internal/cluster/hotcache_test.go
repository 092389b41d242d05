package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
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
	h := NewHotCache(1<<20, time.Minute)
	*h.ctr = HotCacheCounters{1, 2, 3}
	c := NewClient("127.0.0.1:1", ClientOptions{Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute}})
	defer c.Close()
	*c.ctr = ClientCounters{4, 5, 6, 7, 8, 9, 10, 11}
	c.br.failure()
	for _, tc := range []struct {
		stats any
		want  string
	}{
		{h.Stats(), `{"hits":1,"misses":2,"evicts":3,"bytes":0,"items":0}`},
		{c.Stats(), `{"requests":4,"errors":5,"retries":6,"dials":7,"fast_fails":8,"breaker_opens":10,"hedges":10,"hedge_wins":11,"breaker_open":true,"latency":`},
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

func TestHotCacheTTL(t *testing.T) {
	h := NewHotCache(1<<20, 50*time.Millisecond)
	now := int64(5000 * time.Second)
	h.now = func() int64 { return now }
	h.Put("k", 0, []byte("v"))
	if _, _, ok := h.Get("k", nil); !ok {
		t.Fatal("fresh entry missed")
	}
	now += int64(time.Second)
	if _, _, ok := h.Get("k", nil); ok {
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

// TestHotCacheHashCollisionIsAMiss: two keys meeting in the index do not
// share a value.
func TestHotCacheHashCollisionIsAMiss(t *testing.T) {
	h := NewHotCache(1<<20, time.Minute)
	h.Put("a", 0, []byte("A"))
	sa, _ := h.slotLocked(kv.HashString("a"))
	sb, _ := h.slotLocked(kv.HashString("b"))
	h.index[sb] = hotSlot{hash: kv.HashString("b"), ent: h.index[sa].ent}
	if v, _, ok := h.Get("b", nil); ok {
		t.Fatalf("Get(b) returned a's value %q", v)
	}
	h.Invalidate("b")
	if v, _, ok := h.Get("a", nil); !ok || string(v) != "A" {
		t.Fatalf("Invalidate(b) touched a: (%q, %v)", v, ok)
	}
}

// TestHotCacheMatchesReference replays seeded streams of Get, Put,
// Invalidate, oversized Put, PrefetchHashes and clock advances into HotCache
// and the list-based reference on one fake clock, and requires the same
// answer, the same Stats and the same LRU order after every operation. The
// reference has no prefetch: a prefetch of resident, expired and absent keys
// must change nothing a later call can see. The one divergence is the fix
// for refused Puts: the reference keeps the key's older copy, so the stream
// invalidates it there.
func TestHotCacheMatchesReference(t *testing.T) {
	const (
		streams = 20
		ops     = 20_000
		ttl     = 100 * time.Millisecond
	)
	for seed := int64(1); seed <= streams; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(200 + rng.Intn(1200))
		nkeys, maxVal := 48, int(budget)/4
		if seed%4 == 0 { // enough entries to grow the index a few times
			nkeys, maxVal, budget = 600, 32, 20_000
		}
		now := time.Unix(1000, 0)
		h, ref := NewHotCache(budget, ttl), newRefHotCache(budget, ttl)
		h.now = func() int64 { return now.UnixNano() }
		ref.now = func() time.Time { return now }
		var dst []byte
		var hs []uint64
		for op := 0; op < ops; op++ {
			key := "k" + strconv.Itoa(rng.Intn(nkeys))
			switch r := rng.Intn(100); {
			case r < 5:
				hs = hs[:0]
				for i := rng.Intn(2 * hotPrefetchWindow); i >= 0; i-- {
					hs = append(hs, kv.HashString("k"+strconv.Itoa(rng.Intn(nkeys+8))))
				}
				h.PrefetchHashes(hs)
			case r < 45:
				var v []byte
				var f uint32
				var ok bool
				dst, f, ok = h.Get(key, dst[:0])
				if ok {
					v = dst
				}
				rv, rf, rok := ref.Get(key)
				if ok != rok || f != rf || !bytes.Equal(v, rv) {
					t.Fatalf("seed %d op %d: Get(%s) = (%q, %d, %v), reference (%q, %d, %v)", seed, op, key, v, f, ok, rv, rf, rok)
				}
			case r < 80:
				val := bytes.Repeat([]byte{byte('a' + op%26)}, rng.Intn(maxVal))
				flags := uint32(rng.Intn(4))
				h.Put(key, flags, val)
				ref.Put(key, flags, val)
			case r < 85:
				val := make([]byte, int(budget)-len(key)+1+rng.Intn(64))
				h.Put(key, 0, val)
				ref.Put(key, 0, val)
				ref.Invalidate(key)
			case r < 93:
				h.Invalidate(key)
				ref.Invalidate(key)
			default:
				now = now.Add(time.Duration(rng.Int63n(int64(ttl) / 2)))
			}
			if st, rst := h.Stats(), ref.Stats(); st != rst {
				t.Fatalf("seed %d op %d: Stats %+v, reference %+v", seed, op, st, rst)
			}
			if o, ro := h.lruOrder(), ref.lruOrder(); !slices.Equal(o, ro) {
				t.Fatalf("seed %d op %d: LRU order %v, reference %v", seed, op, o, ro)
			}
			if err := h.checkIndex(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// checkIndex verifies the index against the LRU list: it holds one slot per
// entry, each entry's lookup ends at its own slot, and at least a quarter of
// the slots are empty.
func (h *HotCache) checkIndex() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	used := 0
	for _, sl := range h.index {
		if sl.ent != 0 {
			used++
		}
	}
	if used != h.items || used > len(h.index)/4*3 {
		return fmt.Errorf("index holds %d of %d slots for %d entries", used, len(h.index), h.items)
	}
	for i := h.head; i != noSlot; i = h.ents[i].next {
		if j, ok := h.findLocked(h.ents[i].hash); !ok || j != i {
			return fmt.Errorf("entry %d (%q) is not found through the index", i, h.ents[i].buf[:h.ents[i].klen])
		}
	}
	return nil
}

// lruOrder lists the cached keys from most to least recently used.
func (h *HotCache) lruOrder() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for i := h.head; i != noSlot; i = h.ents[i].next {
		out = append(out, string(h.ents[i].buf[:h.ents[i].klen]))
	}
	return out
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
