package server

// Churn-storm acceptance suite: live multi-node clusters with runtime
// membership managers, exercised through real sockets while members
// join, drain, and die under load. These are the robustness gates the
// membership tier ships behind:
//
//   - joining a node under storm load loses no acked write, and with
//     warm handoff the hit-ratio dip stays within 25% of steady state
//     (no backend is configured, so a cold moved key is an honest miss
//     — the dip measures exactly what the handoff is for);
//   - a graceful drain streams every resident out before the node goes;
//   - a killed node is auto-evicted by its peers' probes and the
//     survivors converge without serving wrong values.

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/membership"
)

// churnNode is one cluster member with a live membership manager.
type churnNode struct {
	srv   *Server
	peers *cluster.Peers
	mgr   *membership.Manager
	addr  string
}

// startChurnNode boots one server on ln with a membership manager.
// mcfg.Self, mcfg.Peers and mcfg.Source are filled in here.
func startChurnNode(t *testing.T, ln net.Listener, members []string, mcfg membership.Config) *churnNode {
	t.Helper()
	addr := ln.Addr().String()
	p, err := cluster.New(cluster.Config{Self: addr, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  1 << 22,
		StoreValues: true,
		WindowLen:   10_000,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	mcfg.Self = addr
	mcfg.Peers = p
	mcfg.Source = c
	mgr, err := membership.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hot cache off: the hit-ratio gates must measure engine residency,
	// not a stale mini-cache replica of a moved key.
	srv := New(c, Options{Cluster: p, Membership: mgr, HotCacheBytes: -1})
	go srv.Serve(ln)
	mgr.Start()
	t.Cleanup(func() { mgr.Stop(); srv.Shutdown(); p.Close() })
	return &churnNode{srv: srv, peers: p, mgr: mgr, addr: addr}
}

// startChurnCluster boots n nodes that all know each other, with a
// manager per node configured by mcfg.
func startChurnCluster(t *testing.T, n int, mcfg membership.Config) []*churnNode {
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
	nodes := make([]*churnNode, n)
	for i := range nodes {
		nodes[i] = startChurnNode(t, lns[i], addrs, mcfg)
	}
	return nodes
}

// waitConverged polls until every manager reports the same epoch and a
// view of want members.
func waitConverged(t *testing.T, mgrs []*membership.Manager, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		epochs := make(map[uint64]bool)
		ok := true
		for _, m := range mgrs {
			e, members := m.View()
			epochs[e] = true
			if len(members) != want {
				ok = false
			}
		}
		if ok && len(epochs) == 1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, m := range mgrs {
		e, members := m.View()
		t.Logf("manager %d: epoch %d members %v", i, e, members)
	}
	t.Fatalf("managers never converged on a %d-member view", want)
}

// waitHandoffDrained polls until no manager has an active handoff.
func waitHandoffDrained(t *testing.T, mgrs []*membership.Manager, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		active := false
		for _, m := range mgrs {
			if m.Stats().Handoff.Active {
				active = true
			}
		}
		if !active {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("handoff still active at deadline")
}

// readPass reads every key once, returning hit/miss counts, per-read
// latencies, and the observed values.
func readPass(t *testing.T, cl *client, keys []string) (hits, misses int, lats []time.Duration, vals map[string]string) {
	t.Helper()
	vals = make(map[string]string, len(keys))
	for _, k := range keys {
		start := time.Now()
		v, ok := getValue(t, cl, k)
		lats = append(lats, time.Since(start))
		if ok {
			hits++
			vals[k] = v
		} else {
			misses++
		}
	}
	return
}

// ackTracker records, per key, the last acknowledged write sequence and
// the highest sequence ever sent. A read is consistent iff its sequence
// is within [lastAcked, maxSent]: nothing acked may be lost, and nothing
// never-written may appear. Each key must have a single writer.
type ackTracker struct {
	mu    sync.Mutex
	acked map[string]int
	sent  map[string]int
}

func newAckTracker() *ackTracker {
	return &ackTracker{acked: map[string]int{}, sent: map[string]int{}}
}

func (a *ackTracker) sending(key string, seq int) {
	a.mu.Lock()
	a.sent[key] = seq
	a.mu.Unlock()
}

func (a *ackTracker) ack(key string, seq int) {
	a.mu.Lock()
	a.acked[key] = seq
	a.mu.Unlock()
}

// check verifies one observed value against the ack window.
func (a *ackTracker) check(t *testing.T, key, val string) {
	t.Helper()
	seq, err := strconv.Atoi(val)
	if err != nil {
		t.Fatalf("key %s holds non-sequence value %q", key, val)
	}
	a.mu.Lock()
	lastAcked, maxSent := a.acked[key], a.sent[key]
	a.mu.Unlock()
	if seq < lastAcked {
		t.Errorf("key %s = seq %d, but seq %d was acked: acked write lost", key, seq, lastAcked)
	}
	if seq > maxSent {
		t.Errorf("key %s = seq %d, but only %d were ever sent", key, seq, maxSent)
	}
}

// churnKeys returns the acceptance workload's key set.
func churnKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("churn-%04d", i)
	}
	return keys
}

// seedKeys writes seq 0 to every key through cl and records the acks.
func seedKeys(t *testing.T, cl *client, keys []string, acks *ackTracker) {
	t.Helper()
	for _, k := range keys {
		acks.sending(k, 0)
		cl.send(t, "set "+k+" 0 0 1\r\n0\r\n")
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("seed %s -> %q", k, got)
		}
		acks.ack(k, 0)
	}
}

// stormWriter keeps rewriting keys round-robin with increasing
// sequences until stop closes, recording every ack.
func stormWriter(t *testing.T, addr string, keys []string, acks *ackTracker, stop chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := dial(t, addr)
		seq := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			k := keys[seq%len(keys)]
			body := strconv.Itoa(seq)
			acks.sending(k, seq)
			cl.send(t, fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", k, len(body), body))
			if got := cl.line(t); got == "STORED" {
				acks.ack(k, seq)
			}
		}
	}()
}

// stormReader hammers reads round-robin until stop closes. Replies must
// stay well-formed throughout (getValue checks framing).
func stormReader(t *testing.T, addr string, keys []string, stop chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := dial(t, addr)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			getValue(t, cl, keys[i%len(keys)])
		}
	}()
}

// TestChurnJoinWarmHandoffGate is the node-add gate: a 4th node joins a
// live 3-node cluster under storm load via the real -join handshake. No
// acked write may be lost across the epoch boundary, the moved arc must
// arrive warm at the joiner (measurably: the post-join hit ratio and
// p99 stay within 25% of the steady-state baseline), and every manager
// must converge on the same 4-member view.
func TestChurnJoinWarmHandoffGate(t *testing.T) {
	nodes := startChurnCluster(t, 3, membership.Config{
		ProbeInterval: -1,      // no probing: this test is about the join path
		HandoffRate:   200_000, // warm handoff, effectively unthrottled
	})
	keys := churnKeys(400)
	acks := newAckTracker()
	seedKeys(t, dial(t, nodes[0].addr), keys, acks)

	// Steady-state baseline: three full passes, all hits.
	measure := dial(t, nodes[1].addr)
	var steadyLats []time.Duration
	steadyHits, steadyTotal := 0, 0
	for i := 0; i < 3; i++ {
		h, m, lats, _ := readPass(t, measure, keys)
		steadyHits += h
		steadyTotal += h + m
		steadyLats = append(steadyLats, lats...)
	}
	if steadyHits != steadyTotal {
		t.Fatalf("steady state: %d/%d hits, want all", steadyHits, steadyTotal)
	}
	steadyP99 := p99(steadyLats)

	// Storm: writers and readers through different nodes for the whole
	// join window. Each key has one writer: two writers' sequences for one
	// key interleave, and the ack window needs a key's sequences to grow.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var halves [2][]string
	for i, k := range keys {
		halves[i%2] = append(halves[i%2], k)
	}
	stormWriter(t, nodes[0].addr, halves[0], acks, stop, &wg)
	stormWriter(t, nodes[2].addr, halves[1], acks, stop, &wg)
	stormReader(t, nodes[1].addr, keys, stop, &wg)

	// The 4th node joins through the seed while the storm runs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joiner := startChurnNode(t, ln, []string{ln.Addr().String()}, membership.Config{
		ProbeInterval: -1,
		HandoffRate:   200_000,
	})
	joinDone := make(chan error, 1)
	go func() { joinDone <- joiner.mgr.JoinCluster(nodes[0].addr, 10*time.Second) }()

	// Measure reads continuously across the join + handoff window: this
	// is where the dip (if any) lives.
	mgrs := []*membership.Manager{nodes[0].mgr, nodes[1].mgr, nodes[2].mgr, joiner.mgr}
	var churnLats []time.Duration
	churnHits, churnTotal := 0, 0
	deadline := time.Now().Add(15 * time.Second)
	joined := false
	for time.Now().Before(deadline) {
		h, m, lats, _ := readPass(t, measure, keys)
		churnHits += h
		churnTotal += h + m
		churnLats = append(churnLats, lats...)
		if !joined {
			select {
			case err := <-joinDone:
				if err != nil {
					t.Fatalf("join: %v", err)
				}
				joined = true
			default:
				continue
			}
		}
		// Joined: stop once the view converged and all handoffs drained.
		conv := true
		for _, m := range mgrs {
			_, members := m.View()
			if len(members) != 4 {
				conv = false
			}
			if m.Stats().Handoff.Active {
				conv = false
			}
		}
		if conv {
			break
		}
	}
	if !joined {
		t.Fatal("join never completed")
	}
	waitConverged(t, mgrs, 4, 5*time.Second)
	waitHandoffDrained(t, mgrs, 5*time.Second)
	close(stop)
	wg.Wait()

	// The moved arc was streamed, not dropped.
	var handoffKeys uint64
	for _, n := range nodes {
		handoffKeys += n.mgr.Stats().Handoff.KeysSent
	}
	if handoffKeys == 0 {
		t.Fatal("no key was warm-handed to the joiner")
	}

	// Gate: hit-ratio dip within 25% of steady state across the whole
	// churn window. Without a backend every cold moved key is a miss, so
	// this measures the handoff's warmth directly.
	steadyRatio := float64(steadyHits) / float64(steadyTotal)
	churnRatio := float64(churnHits) / float64(churnTotal)
	t.Logf("hit ratio: steady %.4f, churn %.4f; p99: steady %v, churn %v; %d keys handed off",
		steadyRatio, churnRatio, steadyP99, p99(churnLats), handoffKeys)
	if churnRatio < 0.75*steadyRatio {
		t.Errorf("churn hit ratio %.4f dipped more than 25%% below steady %.4f", churnRatio, steadyRatio)
	}
	// Gate: p99 within 25% of baseline, with a scheduler-noise floor so
	// a microsecond-scale baseline doesn't make the gate vacuous-strict.
	if churnP99 := p99(churnLats); churnP99 > steadyP99*5/4 && churnP99 > 25*time.Millisecond {
		t.Errorf("churn p99 %v regressed more than 25%% over steady %v", churnP99, steadyP99)
	}

	// Gate: no lost acked writes. Read every key through an old node and
	// through the joiner; both must agree with the ack window.
	joinerCl := dial(t, joiner.addr)
	for _, cl := range []*client{measure, joinerCl} {
		h, m, _, vals := readPass(t, cl, keys)
		if m != 0 {
			t.Fatalf("%d/%d keys missing after join settled", m, h+m)
		}
		for k, v := range vals {
			acks.check(t, k, v)
		}
	}
}

// TestChurnGracefulDrain: draining a member streams every resident to
// the survivors before the node goes — zero acked writes lost, zero
// misses afterward.
func TestChurnGracefulDrain(t *testing.T) {
	nodes := startChurnCluster(t, 3, membership.Config{
		ProbeInterval: -1,
		HandoffRate:   200_000,
	})
	keys := churnKeys(300)
	acks := newAckTracker()
	seedKeys(t, dial(t, nodes[0].addr), keys, acks)

	// Light storm through the survivors across the drain.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stormWriter(t, nodes[0].addr, keys, acks, stop, &wg)
	stormReader(t, nodes[1].addr, keys, stop, &wg)

	if err := nodes[2].mgr.Drain(); err != nil {
		t.Fatal(err)
	}
	mgrs := []*membership.Manager{nodes[0].mgr, nodes[1].mgr}
	waitConverged(t, mgrs, 2, 5*time.Second)
	// The drain's run starts on its own goroutine: wait until it is counted
	// before waiting for it to end.
	for deadline := time.Now().Add(5 * time.Second); nodes[2].mgr.Stats().Handoff.Runs == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("drain's handoff run never started")
		}
	}
	waitHandoffDrained(t, []*membership.Manager{nodes[2].mgr}, 10*time.Second)
	close(stop)
	wg.Wait()

	st := nodes[2].mgr.Stats()
	if !st.Draining {
		t.Fatal("drained node does not report draining")
	}
	if st.Handoff.KeysSent == 0 {
		t.Fatal("drain streamed nothing")
	}
	// The drained node holds nothing: everything moved to the survivors.
	if items := nodes[2].srv.c.Items(); items != 0 {
		t.Errorf("drained node still holds %d items", items)
	}
	// Every key survives with a consistent value, via either survivor.
	for _, n := range nodes[:2] {
		cl := dial(t, n.addr)
		h, m, _, vals := readPass(t, cl, keys)
		if m != 0 {
			t.Fatalf("%d/%d keys lost in drain (via %s)", m, h+m, n.addr)
		}
		for k, v := range vals {
			acks.check(t, k, v)
		}
	}
}

// TestChurnKillNodeAutoEviction: a member that dies cold is detected by
// its peers' probes, auto-evicted with hysteresis, and the survivors
// converge — serving honest misses for the dead arc, correct values for
// their own, and accepting writes throughout.
func TestChurnKillNodeAutoEviction(t *testing.T) {
	nodes := startChurnCluster(t, 3, membership.Config{
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		SuspectAfter:  2,
		EvictAfter:    4,
		EvictCooldown: 100 * time.Millisecond,
		HandoffRate:   200_000,
	})
	keys := churnKeys(200)
	acks := newAckTracker()
	seedKeys(t, dial(t, nodes[0].addr), keys, acks)
	owners := make(map[string]string, len(keys))
	for _, k := range keys {
		owners[k] = nodes[0].peers.Owner(k)
	}

	// Keep read load flowing across the kill.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stormReader(t, nodes[0].addr, keys, stop, &wg)

	deadAddr := nodes[2].addr
	nodes[2].mgr.Stop()
	nodes[2].srv.Shutdown()

	// The survivors' probes must notice, gate through suspicion, and
	// evict; then both converge on the 2-member view.
	mgrs := []*membership.Manager{nodes[0].mgr, nodes[1].mgr}
	waitConverged(t, mgrs, 2, 15*time.Second)
	close(stop)
	wg.Wait()

	var evictions, suspects uint64
	for _, m := range mgrs {
		st := m.Stats()
		evictions += st.Evictions
		suspects += st.Suspects
	}
	if evictions == 0 || suspects == 0 {
		t.Fatalf("evictions=%d suspects=%d, want both > 0", evictions, suspects)
	}
	for _, m := range mgrs {
		if m.IsMember(deadAddr) {
			t.Fatal("dead node still in a survivor's view")
		}
	}

	// Survivor-owned keys keep their acked values; dead-owned keys are
	// honest misses, never wrong values; and the ring accepts writes.
	cl := dial(t, nodes[1].addr)
	for _, k := range keys {
		v, ok := getValue(t, cl, k)
		if owners[k] == deadAddr {
			if ok {
				// Possible only if the dead node handed the key off
				// before dying — it did not (it was killed cold).
				t.Errorf("dead-owned key %s returned %q after cold kill", k, v)
			}
			continue
		}
		if !ok {
			t.Errorf("survivor-owned key %s lost in eviction reroute", k)
			continue
		}
		acks.check(t, k, v)
	}
	for i := 0; i < 20; i++ {
		k := keys[i]
		cl.send(t, "set "+k+" 0 0 2\r\nnv\r\n")
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("post-eviction set %s -> %q", k, got)
		}
	}
}
