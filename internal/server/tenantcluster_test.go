package server

// Tenants in cluster mode: every node runs the same tenant spec and the same
// ring. The ring picks a key's owner by the whole key, tenant prefix
// included; the owner routes the key into its tenant's engines exactly as a
// single node does; each node's arbiter balances only that node's budget.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pamakv/internal/cache"
	kvclient "pamakv/internal/client"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/membership"
	"pamakv/internal/shard"
	"pamakv/internal/tenant"
)

// tenantNode is one cluster member serving a two-tenant group.
type tenantNode struct {
	churnNode
	reg     *tenant.Registry
	g       *shard.Group
	members []tenant.Member
	arb     *tenant.Arbiter
}

// tenantNodeBytes is each node's budget: 64 slabs of 64 KiB.
const tenantNodeBytes = 4 << 20

// startTenantNode boots a member on ln with the gold/bronze spec every node
// shares, two engines per tenant, and a membership manager.
func startTenantNode(t *testing.T, ln net.Listener, members []string) *tenantNode {
	t.Helper()
	addr := ln.Addr().String()
	reg, err := tenant.NewRegistry([]tenant.Config{
		{Name: "gold", ReservedBytes: 1 << 20, Weight: 3}, {Name: "bronze", SLOClass: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g, tms, err := tenant.NewGroup(reg, cache.Config{
		Geometry: kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8}, CacheBytes: tenantNodeBytes,
		StoreValues: true, WindowLen: 10_000,
	}, 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	arb, err := tenant.NewArbiter(tms)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetArbiter(arb)
	p, err := cluster.New(cluster.Config{Self: addr, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := membership.New(membership.Config{Self: addr, Peers: p, Source: g, ProbeInterval: -1, HandoffRate: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	// Hot cache off: a read through a non-owner must reach the owner's engines.
	srv := New(g, Options{Tenants: reg, Cluster: p, Membership: mgr, HotCacheBytes: -1})
	go srv.Serve(ln)
	mgr.Start()
	t.Cleanup(func() { mgr.Stop(); srv.Shutdown(); p.Close() })
	return &tenantNode{churnNode{srv: srv, peers: p, mgr: mgr, addr: addr}, reg, g, tms, arb}
}

// auditTenantCluster checks every node at a quiescent point: its engines'
// invariants and tenant stamps hold, and each resident item is owned by that
// node under the ring and lives in the engines of the tenant its key names.
// It returns how many nodes hold each key.
func auditTenantCluster(t *testing.T, nodes []*tenantNode) map[string]int {
	t.Helper()
	held := map[string]int{}
	for i, n := range nodes {
		// CheckInvariants takes every engine lock, so the unlocked walks
		// below are ordered after the servers' last writes.
		if err := n.g.CheckInvariants(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if err := tenant.CheckIsolation(n.members); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		for _, m := range n.members {
			for _, e := range m.Engines {
				e.RangeItems(func(it *kv.Item) bool {
					key := strings.Clone(it.Key())
					if id := n.reg.Resolve(key); id != m.ID {
						t.Errorf("node %d: %q filed under tenant %s, not %s", i, key, m.Cfg.Name, n.reg.Config(id).Name)
					}
					if o := n.peers.Owner(key); o != n.addr {
						t.Errorf("node %d holds %q, owned by %s", i, key, o)
					}
					held[key]++
					return true
				})
			}
		}
	}
	for k, c := range held {
		if c != 1 {
			t.Errorf("%q is resident on %d nodes", k, c)
		}
	}
	return held
}

// TestClusterTenants: two nodes with the same tenant spec. Keys of both
// tenants (and of the default one) written through every node read back
// through every node; a sharded client sends each tenant's keys straight to
// their owners; every item lives only on its owner, in its own tenant's
// engines. Then a third node joins under a write storm: the moved keys
// stream into the right tenant engines on the joiner and no acknowledged
// write is lost.
func TestClusterTenants(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, len(lns))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*tenantNode, len(lns))
	clients := make([]*client, len(lns))
	for i, ln := range lns {
		nodes[i] = startTenantNode(t, ln, addrs)
		clients[i] = dial(t, addrs[i])
	}

	// Raw connections: every key through one node, read through all.
	var keys []string
	for i := 0; i < 100; i++ {
		for _, prefix := range []string{"gold/", "bronze/", ""} {
			keys = append(keys, fmt.Sprintf("%sk%d", prefix, i))
		}
	}
	for i, k := range keys {
		cl := clients[i%len(clients)]
		cl.send(t, setCmd(k, k))
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("set %s via node %d -> %q", k, i%len(clients), got)
		}
	}
	readAll := func(clients []*client, keys []string) {
		t.Helper()
		for _, k := range keys {
			for ni, cl := range clients {
				if v, ok := getValue(t, cl, k); !ok || v != k {
					t.Fatalf("get %s via node %d = (%q, %v)", k, ni, v, ok)
				}
			}
		}
	}
	readAll(clients, keys)
	var forwards uint64
	for _, n := range nodes {
		forwards += n.srv.Stats().PeerForwards
	}
	if forwards == 0 {
		t.Fatal("no request was forwarded")
	}

	// A sharded client per tenant routes by the whole key, as the ring does:
	// no node forwards any of its operations.
	for _, name := range []string{"gold", "bronze", ""} {
		c, err := kvclient.New(kvclient.Config{Addrs: addrs, Tenant: name})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			k, q := fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i) // q: the key the server sees
			if name != "" {
				q = name + "/" + k
			}
			if err := c.Set(k, 0, 0, []byte(q)); err != nil {
				t.Fatalf("%s: set %s: %v", name, k, err)
			}
			if it, err := c.Get(k); err != nil || it.Key != q || string(it.Value) != q {
				t.Fatalf("%s: get %s = (%q, %q, %v)", name, k, it.Key, it.Value, err)
			}
			keys = append(keys, q)
		}
		c.Close()
	}
	var after uint64
	for _, n := range nodes {
		after += n.srv.Stats().PeerForwards
	}
	if after != forwards {
		t.Fatalf("sharded tenant clients caused %d forwards; each key should go to its owner", after-forwards)
	}
	if held := auditTenantCluster(t, nodes); len(held) != len(keys) {
		t.Fatalf("the nodes hold %d distinct keys, want %d", len(held), len(keys))
	}

	// A third node with the same spec joins while two writers rewrite the
	// raw keys through the old nodes, one writer per key.
	acks := newAckTracker()
	seedKeys(t, clients[0], keys[:300], acks)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var halves [2][]string
	for i, k := range keys[:300] {
		halves[i%2] = append(halves[i%2], k)
	}
	stormWriter(t, addrs[0], halves[0], acks, stop, &wg)
	stormWriter(t, addrs[1], halves[1], acks, stop, &wg)
	// Join once both writers are under way: each has had a write acked past
	// its first pass over its keys.
	for deadline := time.Now().Add(5 * time.Second); acks.maxAcked(halves[0]) < 200 || acks.maxAcked(halves[1]) < 200; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the write storm never got going")
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joiner := startTenantNode(t, ln, []string{ln.Addr().String()})
	if err := joiner.mgr.JoinCluster(addrs[0], 10*time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
	nodes = append(nodes, joiner)
	mgrs := []*membership.Manager{nodes[0].mgr, nodes[1].mgr, joiner.mgr}
	waitConverged(t, mgrs, 3, 5*time.Second)
	waitHandoffDrained(t, mgrs, 10*time.Second)
	close(stop)
	wg.Wait()

	var handed uint64
	for _, n := range nodes[:2] {
		handed += n.mgr.Stats().Handoff.KeysSent
	}
	if handed == 0 {
		t.Fatal("no key was handed to the joiner")
	}
	t.Logf("%d keys handed to the joiner; writes acked up to %d and %d", handed, acks.maxAcked(halves[0]), acks.maxAcked(halves[1]))
	for _, m := range joiner.members[:2] {
		items := 0
		for _, e := range m.Engines {
			items += e.Items()
		}
		if items == 0 {
			t.Errorf("joiner's %s engines received no key", m.Cfg.Name)
		}
	}
	clients = append(clients, dial(t, joiner.addr))
	for _, k := range keys[:300] {
		for ni, cl := range clients {
			v, ok := getValue(t, cl, k)
			if !ok {
				t.Fatalf("%s missing via node %d after the join", k, ni)
			}
			acks.check(t, k, v)
		}
	}
	readAll(clients, keys[300:])
	if held := auditTenantCluster(t, nodes); len(held) != len(keys) {
		t.Fatalf("the nodes hold %d distinct keys, want %d", len(held), len(keys))
	}

	// Each arbiter balances its own node's budget, above every floor.
	for i, n := range nodes {
		for s := 0; s < 4; s++ {
			n.arb.Step()
		}
		slabs := 0
		for _, ms := range n.arb.Stats().Members {
			if ms.Slabs < ms.ReserveSlabs {
				t.Errorf("node %d: tenant %s at %d slabs, below its floor of %d", i, ms.Name, ms.Slabs, ms.ReserveSlabs)
			}
			slabs += ms.Slabs
		}
		if want := tenantNodeBytes >> 16; slabs != want {
			t.Errorf("node %d: arbiter balances %d slabs, want the node's %d", i, slabs, want)
		}
	}
}

// maxAcked is the highest sequence acknowledged for any of keys.
func (a *ackTracker) maxAcked(keys []string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	top := 0
	for _, k := range keys {
		top = max(top, a.acked[k])
	}
	return top
}
