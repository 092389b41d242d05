package server

// End-to-end cluster tests: several real servers on real sockets, routing
// to each other through the peer tier. These are the integration proof for
// the cluster subsystem — ownership is exclusive, forwarding works for
// reads and writes (CAS included), a dead node's keys reroute to survivors
// without losing the survivors' data, concurrent remote reads collapse to
// one wire request, and a dead owner degrades to a local backend fetch.

import (
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
)

// cnode is one in-process cluster member.
type cnode struct {
	srv   *Server
	peers *cluster.Peers
	addr  string
}

// newClusterEngine builds the small value-storing PAMA engine every cluster
// test node serves from.
func newClusterEngine(t testing.TB) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  1 << 22,
		StoreValues: true,
		WindowLen:   10_000,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startCluster boots n servers on loopback listeners that all know each
// other. customize (optional) edits each node's Options after the cluster
// wiring is in place (the Cluster field is already set).
func startCluster(t testing.TB, n int, ccfg cluster.Config, customize func(i int, o *Options)) []*cnode {
	t.Helper()
	return startClusterOn(t, n, ccfg, customize, newClusterEngine)
}

// startClusterOn is startCluster with each node's engine built by engine.
func startClusterOn(t testing.TB, n int, ccfg cluster.Config, customize func(i int, o *Options), engine func(testing.TB) *cache.Cache) []*cnode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*cnode, n)
	for i := range nodes {
		cfg := ccfg
		cfg.Self = addrs[i]
		cfg.Members = addrs
		p, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Cluster: p}
		if customize != nil {
			customize(i, &opts)
		}
		srv := New(engine(t), opts)
		go srv.Serve(lns[i])
		nodes[i] = &cnode{srv: srv, peers: p, addr: addrs[i]}
		t.Cleanup(func() { srv.Shutdown(); p.Close() })
	}
	return nodes
}

// ownerIndex returns which node owns key.
func ownerIndex(t testing.TB, nodes []*cnode, key string) int {
	t.Helper()
	owner := nodes[0].peers.Owner(key)
	for i, n := range nodes {
		if n.addr == owner {
			return i
		}
	}
	t.Fatalf("owner %q of %q is not a cluster member", owner, key)
	return -1
}

// keyOwnedBy finds a key that the given node owns.
func keyOwnedBy(t *testing.T, nodes []*cnode, idx int, tag string) string {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		k := fmt.Sprintf("%s-%d", tag, i)
		if nodes[0].peers.Owner(k) == nodes[idx].addr {
			return k
		}
	}
	t.Fatalf("no key owned by node %d found", idx)
	return ""
}

// getValue runs one get and returns (value, true) or ("", false) on END.
// The body is read by its declared length (backend-synthesized values are
// binary and may contain newlines).
func getValue(t *testing.T, cl *client, key string) (string, bool) {
	t.Helper()
	cl.send(t, "get "+key+"\r\n")
	l := cl.line(t)
	if l == "END" {
		return "", false
	}
	fields := strings.Fields(l) // VALUE key flags len
	if len(fields) != 4 || fields[0] != "VALUE" || fields[1] != key {
		t.Fatalf("get %s -> %q", key, l)
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil {
		t.Fatalf("get %s header length %q", key, fields[3])
	}
	buf := make([]byte, n+2) // body + CRLF
	if _, err := io.ReadFull(cl.r, buf); err != nil {
		t.Fatalf("get %s body: %v", key, err)
	}
	if got := cl.line(t); got != "END" {
		t.Fatalf("get %s end -> %q", key, got)
	}
	return string(buf[:n]), true
}

// TestClusterForwardingSingleOwner: writes and reads through arbitrary
// nodes land on (and only on) each key's owner; every node serves every
// key; CAS round-trips through the relay.
func TestClusterForwardingSingleOwner(t *testing.T) {
	nodes := startCluster(t, 3, cluster.Config{}, nil)
	clients := make([]*client, len(nodes))
	for i, n := range nodes {
		clients[i] = dial(t, n.addr)
	}

	const keys = 60
	for i := 0; i < keys; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		cl := clients[i%len(clients)] // many of these are not the owner
		cl.send(t, fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val))
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("set %s via node %d -> %q", key, i%len(clients), got)
		}
	}

	// Every key is readable from every node, owner or not.
	for i := 0; i < keys; i++ {
		key, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		for ni, cl := range clients {
			val, ok := getValue(t, cl, key)
			if !ok || val != want {
				t.Fatalf("get %s via node %d = (%q, %v), want %q", key, ni, val, ok, want)
			}
		}
	}

	// Single-owner placement: each key is resident on exactly one engine
	// (the hot cache is a separate structure and does not count here).
	total := 0
	for _, n := range nodes {
		items := n.srv.c.Items()
		if items == 0 {
			t.Error("one node owns no keys (distribution collapsed)")
		}
		total += items
	}
	if total != keys {
		t.Fatalf("engines hold %d items, want exactly %d (one owner per key)", total, keys)
	}
	var forwards uint64
	for _, n := range nodes {
		forwards += n.srv.Stats().PeerForwards
	}
	if forwards == 0 {
		t.Fatal("no request was forwarded")
	}

	// CAS through the relay: gets via a non-owner carries the owner's
	// token; cas with it succeeds once and only once.
	key := keyOwnedBy(t, nodes, 0, "cas")
	other := clients[1]
	other.send(t, "set "+key+" 0 0 1\r\na\r\n")
	if got := other.line(t); got != "STORED" {
		t.Fatalf("cas setup -> %q", got)
	}
	other.send(t, "gets "+key+"\r\n")
	header := other.line(t)
	fields := strings.Fields(header) // VALUE key flags len cas
	if len(fields) != 5 {
		t.Fatalf("gets header -> %q", header)
	}
	other.line(t) // body
	other.line(t) // END
	cas := fields[4]
	third := clients[2]
	third.send(t, "cas "+key+" 0 0 1 "+cas+"\r\nb\r\n")
	if got := third.line(t); got != "STORED" {
		t.Fatalf("cas with fresh token -> %q", got)
	}
	third.send(t, "cas "+key+" 0 0 1 "+cas+"\r\nc\r\n")
	if got := third.line(t); got != "EXISTS" {
		t.Fatalf("cas with stale token -> %q", got)
	}
}

// TestClusterHotCacheAbsorbsRepeatReads: a non-owner's second plain GET of
// a remote key is served locally from the hot-item mini-cache, and a write
// through the same node invalidates the copy.
func TestClusterHotCacheAbsorbsRepeatReads(t *testing.T) {
	nodes := startCluster(t, 2, cluster.Config{}, nil)
	key := keyOwnedBy(t, nodes, 1, "hot")
	cl := dial(t, nodes[0].addr) // non-owner

	cl.send(t, "set "+key+" 0 0 1\r\nx\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	for i := 0; i < 3; i++ {
		if val, ok := getValue(t, cl, key); !ok || val != "x" {
			t.Fatalf("read %d = (%q, %v)", i, val, ok)
		}
	}
	st := nodes[0].srv.Stats()
	if st.HotHits < 2 {
		t.Fatalf("HotHits = %d after 3 reads, want >= 2", st.HotHits)
	}
	// A write through this node must drop the local copy: the next read
	// goes back to the owner and sees the new value immediately (not
	// after the TTL).
	cl.send(t, "set "+key+" 0 0 1\r\ny\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("overwrite -> %q", got)
	}
	if val, ok := getValue(t, cl, key); !ok || val != "y" {
		t.Fatalf("read after overwrite = (%q, %v), want \"y\"", val, ok)
	}
}

// TestClusterNodeFailureReroutes is the kill-a-node drill: after a member
// dies mid-run and the survivors drop it from the membership, keys reroute
// to the survivors, no write owned by a survivor is lost, and writes keep
// succeeding.
func TestClusterNodeFailureReroutes(t *testing.T) {
	// Hot cache off: the assertion "a dead owner's keys now miss" must
	// not be masked by a surviving replica in a mini-cache.
	nodes := startCluster(t, 3, cluster.Config{}, func(i int, o *Options) {
		o.HotCacheBytes = -1
	})
	clA, clB := dial(t, nodes[0].addr), dial(t, nodes[1].addr)

	const keys = 90
	owners := make([]int, keys)
	for i := 0; i < keys; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		owners[i] = ownerIndex(t, nodes, key)
		cl := clA
		if i%2 == 1 {
			cl = clB
		}
		cl.send(t, fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val))
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("set %s -> %q", key, got)
		}
	}

	// Keep read traffic flowing across the kill, as a live workload
	// would; replies stay well-formed throughout (values or END).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := dial(t, nodes[0].addr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 10; i++ {
				getValue(t, cl, fmt.Sprintf("k%d", i))
			}
		}
	}()

	// Node 2 dies; the survivors drop it.
	nodes[2].srv.Shutdown()
	survivors := []string{nodes[0].addr, nodes[1].addr}
	if err := nodes[0].peers.SetMembers(survivors); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].peers.SetMembers(survivors); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for i := 0; i < keys; i++ {
		key, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if o := nodes[0].peers.Owner(key); o != nodes[0].addr && o != nodes[1].addr {
			t.Fatalf("key %s still routed to the dead node", key)
		}
		val, ok := getValue(t, clA, key)
		switch owners[i] {
		case 0, 1:
			// The write went to a surviving owner: it must not be lost.
			if !ok || val != want {
				t.Fatalf("survivor-owned key %s = (%q, %v), want %q", key, val, ok, want)
			}
		case 2:
			// The owner died with the data: an honest miss, never a
			// wrong value.
			if ok {
				t.Fatalf("dead-owned key %s returned %q after reroute", key, val)
			}
		}
	}

	// The rerouted arcs spread over both survivors, and writes to them
	// succeed.
	moved := [2]int{}
	for i := 0; i < keys; i++ {
		if owners[i] != 2 {
			continue
		}
		key := fmt.Sprintf("k%d", i)
		ni := ownerIndex(t, nodes[:2], key)
		moved[ni]++
		clB.send(t, "set "+key+" 0 0 2\r\nnv\r\n")
		if got := clB.line(t); got != "STORED" {
			t.Fatalf("post-failure set %s -> %q", key, got)
		}
		if val, ok := getValue(t, clA, key); !ok || val != "nv" {
			t.Fatalf("post-failure get %s = (%q, %v)", key, val, ok)
		}
	}
	if moved[0] == 0 || moved[1] == 0 {
		t.Fatalf("dead node's keys all moved to one survivor: %v", moved)
	}
}

// TestClusterHerdCostsOwnerOneFetch: 64 connections racing a GET of one
// remote key through a non-owner each forward it, and the owner's backend
// guard collapses their misses onto exactly one backend fetch. Every racer
// gets the value.
func TestClusterHerdCostsOwnerOneFetch(t *testing.T) {
	// The owner's backend sleeps 250ms per fetch (real-time scale 1.0),
	// holding the fetch open long enough for every racer's miss to join it.
	slow := backend.NewRealTime(penalty.Uniform(0.25), nil, 1.0)
	nodes := startCluster(t, 2, cluster.Config{}, func(i int, o *Options) {
		if i == 1 {
			o.Backend = slow
		}
	})
	key := keyOwnedBy(t, nodes, 1, "herd")

	const racers = 64
	clients := make([]*client, racers)
	for i := range clients {
		clients[i] = dial(t, nodes[0].addr)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(racers)
	for _, cl := range clients {
		go func() {
			defer wg.Done()
			<-start
			if val, ok := getValue(t, cl, key); !ok || len(val) != 100 {
				t.Errorf("racer got (%q, %v)", val, ok)
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := slow.Fetches(); got != 1 {
		t.Fatalf("%d concurrent remote GETs cost %d backend fetches, want 1", racers, got)
	}
	if st := nodes[0].srv.Stats(); st.PeerHits+st.HotHits != racers {
		t.Fatalf("%d racers: %d peer hits and %d hot-cache hits", racers, st.PeerHits, st.HotHits)
	}
}

// TestClusterFallbackToLocalBackend: when the owner is unreachable, a GET
// degrades to a local backend fetch instead of a miss.
func TestClusterFallbackToLocalBackend(t *testing.T) {
	// A member that is gone: its port stays held for the whole test, so a
	// parallel test's listener cannot take it and answer, and every
	// connection to it is closed as soon as it is accepted.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	refused := make(chan struct{})
	go func() {
		defer close(refused)
		for {
			c, err := dead.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	t.Cleanup(func() { dead.Close(); <-refused })

	store := backend.New(penalty.Uniform(0.001), nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cluster.New(cluster.Config{
		Self:    ln.Addr().String(),
		Members: []string{ln.Addr().String(), deadAddr},
		Client:  cluster.ClientOptions{Retries: -1, DialTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(newClusterEngine(t), Options{Cluster: p, Backend: store})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(); p.Close() })
	nodes := []*cnode{{srv: srv, peers: p, addr: ln.Addr().String()}, {peers: p, addr: deadAddr}}

	key := keyOwnedBy(t, nodes, 1, "fb")
	cl := dial(t, nodes[0].addr)
	val, ok := getValue(t, cl, key)
	if !ok || len(val) != 100 {
		t.Fatalf("degraded get = (%d bytes, %v), want the 100-byte backend value", len(val), ok)
	}
	st := srv.Stats()
	if st.PeerFallbacks != 1 || st.PeerErrors == 0 {
		t.Fatalf("fallbacks=%d errors=%d, want 1 and >0", st.PeerFallbacks, st.PeerErrors)
	}
	if store.Fetches() == 0 {
		t.Fatal("backend was never consulted")
	}
}

// TestClusterAdminExposure: /metrics carries the per-peer labelled series
// and /statsz the cluster document. The set is forwarded; the get that
// follows hits the copy the set left in the hot cache.
func TestClusterAdminExposure(t *testing.T) {
	nodes := startCluster(t, 2, cluster.Config{}, nil)
	key := keyOwnedBy(t, nodes, 1, "adm")
	cl := dial(t, nodes[0].addr)
	cl.send(t, "set "+key+" 0 0 1\r\nz\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	getValue(t, cl, key)
	cl.send(t, "stats\r\n")
	if stats := readUntil(t, cl, "END\r\n"); !strings.Contains(stats, "STAT peer_exchanges 1\r\n") ||
		!strings.Contains(stats, "STAT peer_exchanged_commands 1\r\n") || !strings.Contains(stats, "STAT hot_hits 1\r\n") {
		t.Errorf("stats missing the exchange counters: %q", stats)
	}

	admin := NewAdmin(nodes[0].srv)
	rec := httptest.NewRecorder()
	admin.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"pamakv_cluster_forwards_total",
		"pamakv_cluster_peer_hits_total",
		"pamakv_cluster_exchanges_total 1",
		"pamakv_cluster_exchanged_commands_total 1",
		`pamakv_peer_requests_total{peer="` + nodes[1].addr + `"}`,
		`pamakv_peer_breaker_open{peer="` + nodes[1].addr + `"} 0`,
		`pamakv_peer_request_seconds_count{peer="` + nodes[1].addr + `"}`,
		"pamakv_hot_cache_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	admin.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	sbody := rec.Body.String()
	for _, want := range []string{
		`"cluster"`,
		`"self": "` + nodes[0].addr + `"`,
		`"` + nodes[1].addr + `"`,
		`"hot_cache"`,
		`"PeerExchanges": 1`,
		`"PeerExchangedCmds": 1`,
	} {
		if !strings.Contains(sbody, want) {
			t.Errorf("/statsz missing %q", want)
		}
	}
}
