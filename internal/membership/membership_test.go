package membership

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pamakv/internal/cluster"
	"pamakv/internal/overload"
	"pamakv/internal/proto"
)

// fakeNode is a minimal in-process peer speaking just enough of the text
// protocol for membership tests: storage verbs, version, and the
// membership control keys (answered as a fixed refusal or acceptance).
type fakeNode struct {
	ln net.Listener

	mu   sync.Mutex
	data map[string][]byte
	// applies records every __pamakv.m.apply body received.
	applies [][]byte
	// applyReply, when set, overrides the STORED answer to view pushes
	// (a node refusing a conflicting view replies SERVER_ERROR).
	applyReply string
	// storeReply, when set, overrides the answer to data-key set/add —
	// a target shedding handoff traffic under overload replies
	// SERVER_ERROR without storing.
	storeReply string
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &fakeNode{ln: ln, data: map[string][]byte{}}
	go n.serve()
	t.Cleanup(func() { ln.Close() })
	return n
}

func (n *fakeNode) addr() string { return n.ln.Addr().String() }

func (n *fakeNode) get(key string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.data[key]
	return v, ok
}

func (n *fakeNode) appliesSeen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.applies)
}

func (n *fakeNode) lastApply() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.applies) == 0 {
		return nil
	}
	return n.applies[len(n.applies)-1]
}

func (n *fakeNode) serve() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		go n.handle(conn)
	}
}

func (n *fakeNode) handle(conn net.Conn) {
	defer conn.Close()
	r := proto.NewParser(bufio.NewReader(conn))
	defer r.Close()
	w := bufio.NewWriter(conn)
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			return
		}
		var out []byte
		switch cmd.Verb {
		case proto.VerbVersion:
			out = proto.AppendLine(out, "VERSION test")
		case proto.VerbSet, proto.VerbAdd:
			n.mu.Lock()
			if cmd.Keys[0] == KeyApply {
				n.applies = append(n.applies, append([]byte(nil), cmd.Data...))
				reply := n.applyReply
				n.mu.Unlock()
				if reply == "" {
					reply = "STORED"
				}
				out = proto.AppendLine(out, reply)
				break
			}
			if n.storeReply != "" {
				reply := n.storeReply
				n.mu.Unlock()
				out = proto.AppendLine(out, reply)
				break
			}
			if _, exists := n.data[cmd.Keys[0]]; exists && cmd.Verb == proto.VerbAdd {
				n.mu.Unlock()
				out = proto.AppendLine(out, "NOT_STORED")
				break
			}
			n.data[strings.Clone(cmd.Keys[0])] = append([]byte(nil), cmd.Data...)
			n.mu.Unlock()
			out = proto.AppendLine(out, "STORED")
		case proto.VerbGet, proto.VerbGets:
			n.mu.Lock()
			for _, k := range cmd.Keys {
				if v, ok := n.data[k]; ok {
					out = proto.AppendValue(out, k, 0, v)
				}
			}
			n.mu.Unlock()
			out = proto.AppendEnd(out)
		case proto.VerbDelete:
			n.mu.Lock()
			delete(n.data, cmd.Keys[0])
			n.mu.Unlock()
			out = proto.AppendLine(out, "DELETED")
		default:
			out = proto.AppendLine(out, "ERROR")
		}
		if _, err := w.Write(out); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// newManager builds a Manager over a fresh Peers with probing disabled
// (tests drive probeOnce directly for determinism).
func newManager(t *testing.T, self string, members []string, cfg Config) (*Manager, *cluster.Peers) {
	t.Helper()
	p, err := cluster.New(cluster.Config{Self: self, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	cfg.Self = self
	cfg.Peers = p
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m, p
}

// TestStatsPublishLiveCounters: Stats publishes the live counter set, each
// counter once, under its json name and in declaration order.
func TestStatsPublishLiveCounters(t *testing.T) {
	self := "127.0.0.1:7101"
	m, _ := newManager(t, self, []string{self}, Config{HandoffRate: -1})
	*m.ctr = counters{Counters{1, 2, 3, 4, 5, 6, 7}, HandoffCounters{8, 9, 10, 11, 12, 13}}
	b, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"applies":1,"refusals":2,"joins":3,"suspects":4,"evictions":5,"probes":6,"probe_failures":7,"probe_latency":`,
		`"handoff":{"active":false,"runs":8,"keys_planned":9,"keys_sent":10,"bytes_sent":11,"errors":12,"aborts":13,"duration_seconds":`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("Stats JSON lacks %s:\n%s", want, b)
		}
	}
}

func TestViewEncodeParseRoundTrip(t *testing.T) {
	body := EncodeView(42, []string{"a:1", "b:2"})
	epoch, members, err := ParseView(body)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 || !reflect.DeepEqual(members, []string{"a:1", "b:2"}) {
		t.Fatalf("round trip = (%d, %v)", epoch, members)
	}
	// Parsing normalizes: dedupe, sort, trim.
	_, members, err = ParseView([]byte("7 b:2, a:1 ,b:2"))
	if err != nil || !reflect.DeepEqual(members, []string{"a:1", "b:2"}) {
		t.Fatalf("normalize = (%v, %v)", members, err)
	}
	for _, bad := range []string{"", "noepoch", "x a:1", "9999999999999999999999 a:1"} {
		if _, _, err := ParseView([]byte(bad)); err == nil {
			t.Errorf("ParseView(%q) accepted", bad)
		}
	}
}

func TestIsControlKey(t *testing.T) {
	for _, k := range []string{KeyApply, KeyJoin, KeyView, "__pamakv.m.future"} {
		if !IsControlKey(k) {
			t.Errorf("IsControlKey(%q) = false", k)
		}
	}
	for _, k := range []string{"user:k", "__pamakv", "pamakv.m.apply", ""} {
		if IsControlKey(k) {
			t.Errorf("IsControlKey(%q) = true", k)
		}
	}
}

// TestApplyEpochStateMachine exercises the view versioning rules,
// including the ISSUE's explicit satellite: an epoch going backwards
// must be refused (stale routing pushes are detectable, not silently
// regressive).
func TestApplyEpochStateMachine(t *testing.T) {
	self := "127.0.0.1:7101"
	other := "127.0.0.1:7102"
	third := "127.0.0.1:7103"
	m, p := newManager(t, self, []string{self, other}, Config{HandoffRate: -1})

	if e := m.Epoch(); e != 1 {
		t.Fatalf("seed epoch = %d, want 1", e)
	}
	// A newer epoch applies and reroutes.
	if err := m.Apply(5, []string{self, other, third}, "test"); err != nil {
		t.Fatal(err)
	}
	if e, members := m.View(); e != 5 || len(members) != 3 {
		t.Fatalf("View = (%d, %v)", e, members)
	}
	if got := p.Members(); len(got) != 3 {
		t.Fatalf("Peers not rerouted: %v", got)
	}

	// Backwards epoch: refused, view and routing untouched.
	if err := m.Apply(4, []string{self, other}, "test"); err == nil {
		t.Fatal("backwards epoch accepted")
	}
	if e, _ := m.View(); e != 5 {
		t.Fatalf("backwards epoch moved the view to %d", e)
	}
	if got := p.Members(); len(got) != 3 {
		t.Fatalf("backwards epoch rerouted Peers: %v", got)
	}

	// Equal epoch, identical list: idempotent echo, no error.
	if err := m.Apply(5, []string{third, other, self}, "test"); err != nil {
		t.Fatalf("idempotent echo refused: %v", err)
	}

	// Equal epoch, different list: a concurrent-proposal tie, resolved
	// deterministically. A view encoding larger than the current one
	// loses and is refused...
	loser := []string{self, other, "127.0.0.1:9999"}
	if err := m.Apply(5, loser, "test"); err == nil {
		t.Fatal("tie-losing equal-epoch view accepted")
	}
	if _, members := m.View(); len(members) != 3 || members[2] != third {
		t.Fatalf("losing view moved the membership: %v", members)
	}
	// ...while a view encoding smaller wins and is adopted at the same
	// epoch — the convergence rule for concurrent proposals.
	winner := []string{self, other}
	if err := m.Apply(5, winner, "test"); err != nil {
		t.Fatalf("tie-winning equal-epoch view refused: %v", err)
	}
	if e, members := m.View(); e != 5 || len(members) != 2 {
		t.Fatalf("winning view not adopted: (%d, %v)", e, members)
	}
	if got := p.Members(); len(got) != 2 {
		t.Fatalf("winning view did not reroute Peers: %v", got)
	}

	// Empty view: refused outright.
	if err := m.Apply(9, nil, "test"); err == nil {
		t.Fatal("empty member list accepted")
	}

	st := m.Stats()
	if st.Refusals != 2 {
		t.Errorf("refusals = %d, want 2 (backwards + losing conflict)", st.Refusals)
	}
	if st.Applies != 2 {
		t.Errorf("applies = %d, want 2 (newer epoch + tie-break adoption)", st.Applies)
	}
}

// TestJoinRemoveDrain covers the proposal paths, including the live
// broadcast to a real (fake) peer and the drain-enters-proxy-mode rule.
func TestJoinRemoveDrain(t *testing.T) {
	peer := newFakeNode(t)
	self := "127.0.0.1:7111"
	m, p := newManager(t, self, []string{self, peer.addr()}, Config{HandoffRate: -1})

	joiner := "127.0.0.1:7112"
	if err := m.Join(joiner); err != nil {
		t.Fatal(err)
	}
	if e, members := m.View(); e != 2 || len(members) != 3 {
		t.Fatalf("post-join View = (%d, %v)", e, members)
	}
	// The existing peer heard the broadcast. (The joiner is not
	// listening; that push fails best-effort, which is fine.)
	if peer.appliesSeen() == 0 {
		t.Fatal("peer never received the join broadcast")
	}
	// Idempotent: joining an existing member changes nothing.
	if err := m.Join(joiner); err != nil {
		t.Fatal(err)
	}
	if e := m.Epoch(); e != 2 {
		t.Fatalf("idempotent join bumped the epoch to %d", e)
	}

	if err := m.Remove("127.0.0.1:9999"); err == nil {
		t.Fatal("removing a non-member succeeded")
	}
	if err := m.Remove(joiner); err != nil {
		t.Fatal(err)
	}
	if e, members := m.View(); e != 3 || len(members) != 2 {
		t.Fatalf("post-remove View = (%d, %v)", e, members)
	}

	// Drain: self leaves the view, the node survives in proxy mode.
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if !st.Draining {
		t.Fatal("post-drain Stats not draining")
	}
	if _, members := m.View(); len(members) != 1 || members[0] != peer.addr() {
		t.Fatalf("post-drain view = %v", members)
	}
	for _, k := range []string{"a", "b", "c"} {
		if p.Owner(k) == p.Self() {
			t.Fatalf("draining node still owns %q", k)
		}
	}
	// The last member cannot be removed: the survivor refuses.
	m2, _ := newManager(t, "127.0.0.1:7113", []string{"127.0.0.1:7113"}, Config{HandoffRate: -1})
	if err := m2.Drain(); err == nil {
		t.Fatal("last member drained itself")
	}
}

// TestProbeHysteresisAndEviction drives probeOnce with an injected probe:
// consecutive failures escalate alive → suspect → evicted, one success
// fully resets, and the eviction actually reroutes the ring.
func TestProbeHysteresisAndEviction(t *testing.T) {
	self := "127.0.0.1:7121"
	sick := "127.0.0.1:7122"
	var failing sync.Map // addr -> bool
	probe := func(addr string) error {
		if v, ok := failing.Load(addr); ok && v.(bool) {
			return errors.New("probe refused")
		}
		return nil
	}
	m, p := newManager(t, self, []string{self, sick}, Config{
		SuspectAfter: 2, EvictAfter: 4, EvictCooldown: time.Millisecond,
		Probe: probe, HandoffRate: -1,
	})

	memberState := func(addr string) (string, int) {
		for _, ms := range m.Stats().Members {
			if ms.Addr == addr {
				return ms.State, ms.ProbeFails
			}
		}
		return "", 0
	}

	failing.Store(sick, true)
	m.probeOnce()
	if s, f := memberState(sick); s != StateAlive || f != 1 {
		t.Fatalf("after 1 failure: %s/%d", s, f)
	}
	m.probeOnce()
	if s, _ := memberState(sick); s != StateSuspect {
		t.Fatalf("after SuspectAfter failures: %s, want suspect", s)
	}
	// Hysteresis: one good probe fully recovers.
	failing.Store(sick, false)
	m.probeOnce()
	if s, f := memberState(sick); s != StateAlive || f != 0 {
		t.Fatalf("after recovery: %s/%d, want alive/0", s, f)
	}
	// Fail through to eviction.
	failing.Store(sick, true)
	for i := 0; i < 4; i++ {
		m.probeOnce()
	}
	if m.IsMember(sick) {
		t.Fatal("member not evicted after EvictAfter failures")
	}
	if got := p.Members(); len(got) != 1 || got[0] != self {
		t.Fatalf("ring not rerouted after eviction: %v", got)
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Suspects < 2 || st.ProbeFailures < 6 {
		t.Errorf("stats %+v", st)
	}
}

// TestEvictCooldownGatesStorm: a partition that kills probes to several
// peers at once must evict them one cooldown apart, not collapse the
// ring in one probe round.
func TestEvictCooldownGatesStorm(t *testing.T) {
	self := "127.0.0.1:7131"
	peers := []string{"127.0.0.1:7132", "127.0.0.1:7133", "127.0.0.1:7134"}
	m, _ := newManager(t, self, append([]string{self}, peers...), Config{
		SuspectAfter: 1, EvictAfter: 2, EvictCooldown: time.Hour,
		Probe:       func(string) error { return errors.New("partitioned") },
		HandoffRate: -1,
	})
	for i := 0; i < 10; i++ {
		m.probeOnce()
	}
	if ev := m.Stats().Evictions; ev != 1 {
		t.Fatalf("storm evicted %d members inside one cooldown, want 1", ev)
	}
	if _, members := m.View(); len(members) != 3 {
		t.Fatalf("view after gated storm = %v, want 3 members", members)
	}
}

// fakeSource is an in-memory Source for handoff tests.
type fakeSource struct {
	mu   sync.Mutex
	data map[string]fakeItem
}

type fakeItem struct {
	val []byte
	pen float64
}

func newFakeSource() *fakeSource { return &fakeSource{data: map[string]fakeItem{}} }

func (s *fakeSource) set(key string, val []byte, pen float64) {
	s.mu.Lock()
	s.data[key] = fakeItem{val: val, pen: pen}
	s.mu.Unlock()
}

func (s *fakeSource) has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.data[key]
	return ok
}

func (s *fakeSource) ScanKeys(fn func(key string, pen float64, size int, expireAt int64) bool) {
	s.mu.Lock()
	snap := make(map[string]fakeItem, len(s.data))
	for k, it := range s.data {
		snap[k] = it
	}
	s.mu.Unlock()
	for k, it := range snap {
		if !fn(k, it.pen, len(it.val), 0) {
			return
		}
	}
}

func (s *fakeSource) Get(key string, _ int, _ float64, buf []byte) ([]byte, uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.data[key]
	if !ok {
		return nil, 0, false
	}
	return append(buf, it.val...), 0, true
}

func (s *fakeSource) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.data[key]
	delete(s.data, key)
	return ok
}

func TestPlanPenaltyOrdering(t *testing.T) {
	src := newFakeSource()
	src.set("cheap", []byte("v"), 0.001)
	src.set("mid-b", []byte("v"), 0.5)
	src.set("mid-a", []byte("v"), 0.5)
	src.set("dear", []byte("v"), 5.0)
	src.set("stays", []byte("v"), 9.0)

	plan := Plan(src, func(key string) (string, bool) {
		return "new-owner", key != "stays"
	})
	got := make([]string, len(plan))
	for i, hk := range plan {
		got[i] = hk.Key
	}
	want := []string{"dear", "mid-a", "mid-b", "cheap"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan order = %v, want %v (pen desc, key asc ties)", got, want)
	}
}

// TestHandoffStreamsWarmAndYieldsAuthority runs a real warm handoff
// against a live fake peer: moved keys land at the new owner via "add",
// the sender drops its copy either way (STORED or NOT_STORED), and keys
// still owned locally stay put.
func TestHandoffStreamsWarmAndYieldsAuthority(t *testing.T) {
	peer := newFakeNode(t)
	self := "127.0.0.1:7141"
	src := newFakeSource()
	m, p := newManager(t, self, []string{self}, Config{Source: src})

	// Seed residents, then bring the peer in: its arc's keys must move.
	var moved, kept []string
	for i := 0; i < 64; i++ {
		src.set(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("val-%02d", i)), float64(i))
	}
	// The peer already holds one key that will route to it — the handoff
	// "add" must lose to it (post-cutover data is fresher by definition).
	if err := m.Apply(2, []string{self, peer.addr()}, "test"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		if p.Owner(k) == peer.addr() {
			moved = append(moved, k)
		} else {
			kept = append(kept, k)
		}
	}
	if len(moved) == 0 || len(kept) == 0 {
		t.Fatalf("degenerate split: %d moved, %d kept", len(moved), len(kept))
	}

	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Handoff.KeysSent < uint64(len(moved)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := m.Stats().Handoff
	if st.KeysSent != uint64(len(moved)) || st.Errors != 0 {
		t.Fatalf("handoff stats %+v, want %d keys sent cleanly", st, len(moved))
	}
	for _, k := range moved {
		if v, ok := peer.get(k); !ok || string(v) != "val-"+k[1:] {
			t.Fatalf("moved key %q at new owner = (%q, %v)", k, v, ok)
		}
		if src.has(k) {
			t.Fatalf("moved key %q still resident at old owner", k)
		}
	}
	for _, k := range kept {
		if !src.has(k) {
			t.Fatalf("kept key %q vanished from the old owner", k)
		}
	}
}

// TestHandoffAddLosesToFresherValue: a key the new owner wrote after
// cutover must survive the handoff stream (add → NOT_STORED), and the
// sender still retires its stale copy.
func TestHandoffAddLosesToFresherValue(t *testing.T) {
	peer := newFakeNode(t)
	self := "127.0.0.1:7143"
	src := newFakeSource()
	m, p := newManager(t, self, []string{self}, Config{Source: src})

	// Find keys that will route to the peer under the 2-member view, and
	// pre-write one at the peer (simulating a post-cutover write).
	probe := cluster.NewRing([]string{self, peer.addr()}, 0)
	var fresh string
	for i := 0; fresh == "" && i < 1000; i++ {
		k := fmt.Sprintf("f%03d", i)
		if probe.Owner(k) == peer.addr() {
			fresh = k
		}
	}
	if fresh == "" {
		t.Fatal("no key routed to the peer")
	}
	src.set(fresh, []byte("stale-old-owner-copy"), 1.0)
	peer.mu.Lock()
	peer.data[fresh] = []byte("fresh-post-cutover-write")
	peer.mu.Unlock()

	if err := m.Apply(2, []string{self, peer.addr()}, "test"); err != nil {
		t.Fatal(err)
	}
	if p.Owner(fresh) != peer.addr() {
		t.Fatalf("probe ring and Peers disagree on %q", fresh)
	}
	deadline := time.Now().Add(5 * time.Second)
	for src.has(fresh) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := peer.get(fresh); string(v) != "fresh-post-cutover-write" {
		t.Fatalf("handoff clobbered a post-cutover write: %q", v)
	}
	if src.has(fresh) {
		t.Fatal("sender kept its stale copy after NOT_STORED")
	}
}

// TestHandoffPausesAtCriticalAndAborts: under critical local pressure
// the stream parks instead of competing for the engine, and a newer
// view aborts it.
func TestHandoffPausesAtCriticalAndAborts(t *testing.T) {
	peer := newFakeNode(t)
	self := "127.0.0.1:7145"
	src := newFakeSource()
	m, _ := newManager(t, self, []string{self}, Config{
		Source: src,
		Tier:   func() int { return overload.TierCritical },
	})
	for i := 0; i < 32; i++ {
		src.set(fmt.Sprintf("p%02d", i), []byte("v"), 1.0)
	}
	if err := m.Apply(2, []string{self, peer.addr()}, "test"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if sent := m.Stats().Handoff.KeysSent; sent != 0 {
		t.Fatalf("handoff streamed %d keys at TierCritical, want 0", sent)
	}
	// A newer view supersedes the parked run.
	if err := m.Apply(3, []string{self, peer.addr(), "127.0.0.1:7146"}, "test"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for m.Stats().Handoff.Aborts == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.Stats().Handoff.Aborts == 0 {
		t.Fatal("superseded handoff never aborted")
	}
}

// TestConcurrentEqualEpochProposalsConverge: two nodes proposing
// different views at the same epoch (both auto-evicting, say) must end up
// on one view once their pushes cross — the deterministic tie-break, not
// a permanent split waiting for an unrelated epoch bump.
func TestConcurrentEqualEpochProposalsConverge(t *testing.T) {
	base := []string{"127.0.0.1:7161", "127.0.0.1:7162"}
	m1, _ := newManager(t, base[0], base, Config{HandoffRate: -1})
	m2, _ := newManager(t, base[1], base, Config{HandoffRate: -1})

	vA := append(append([]string(nil), base...), "127.0.0.1:7163")
	vB := append(append([]string(nil), base...), "127.0.0.1:7164")
	if err := m1.Apply(2, vA, "local proposal"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Apply(2, vB, "local proposal"); err != nil {
		t.Fatal(err)
	}

	// The cross pushes land: exactly one side adopts, the other refuses.
	errA := m2.Apply(2, vA, "push from m1")
	errB := m1.Apply(2, vB, "push from m2")
	if (errA == nil) == (errB == nil) {
		t.Fatalf("tie-break not decisive: push vA → %v, push vB → %v", errA, errB)
	}
	e1, v1 := m1.View()
	e2, v2 := m2.View()
	if e1 != e2 || !reflect.DeepEqual(v1, v2) {
		t.Fatalf("views diverged: (%d, %v) vs (%d, %v)", e1, v1, e2, v2)
	}
	// A re-delivered echo of the winning view is now an idempotent no-op
	// on both sides.
	if err := m1.Apply(2, v1, "echo"); err != nil {
		t.Fatalf("winner echo refused by m1: %v", err)
	}
	if err := m2.Apply(2, v1, "echo"); err != nil {
		t.Fatalf("winner echo refused by m2: %v", err)
	}
}

// TestBroadcastLoserAdoptsWinnerView drives the live convergence path: a
// proposer whose push is refused pulls the refusing peer's view, and the
// tie-break adopts it when it wins.
func TestBroadcastLoserAdoptsWinnerView(t *testing.T) {
	peer := newFakeNode(t)
	self := "127.0.0.1:7165"
	m, _ := newManager(t, self, []string{self, peer.addr()}, Config{HandoffRate: -1})

	// The peer already committed a conflicting epoch-2 view whose third
	// member ("127.0.0.1:1") sorts — and therefore encodes — ahead of
	// anything our proposal can contain, so the peer's view wins the tie.
	winnerMembers := cluster.NormalizeMembers([]string{self, peer.addr(), "127.0.0.1:1"})
	winnerBody := EncodeView(2, winnerMembers)
	peer.mu.Lock()
	peer.applyReply = "SERVER_ERROR membership: conflicting view at epoch 2 loses tie-break"
	peer.data[KeyView] = winnerBody
	peer.mu.Unlock()

	// Our join proposes epoch 2 with a different third member; the
	// broadcast is refused and the winner's view is pulled and adopted.
	if err := m.Join("127.0.0.1:7166"); err != nil {
		t.Fatal(err)
	}
	e, members := m.View()
	if e != 2 || !reflect.DeepEqual(members, winnerMembers) {
		t.Fatalf("loser did not adopt the winner: (%d, %v), want (2, %v)", e, members, winnerMembers)
	}
}

// TestIdempotentJoinResendsView: a joiner that is already in the ring but
// never learned it (its admission broadcast was lost) retries the join;
// the idempotent path must re-send the current view instead of silently
// doing nothing.
func TestIdempotentJoinResendsView(t *testing.T) {
	peer := newFakeNode(t)
	self := "127.0.0.1:7171"
	m, _ := newManager(t, self, []string{self, peer.addr()}, Config{HandoffRate: -1})

	if err := m.Join(peer.addr()); err != nil {
		t.Fatal(err)
	}
	if e := m.Epoch(); e != 1 {
		t.Fatalf("idempotent join bumped the epoch to %d", e)
	}
	if peer.appliesSeen() == 0 {
		t.Fatal("idempotent join did not re-send the view to the joiner")
	}
	epoch, members, err := ParseView(peer.lastApply())
	if err != nil {
		t.Fatal(err)
	}
	wantE, wantM := m.View()
	if epoch != wantE || !reflect.DeepEqual(members, wantM) {
		t.Fatalf("re-sent view = (%d, %v), want (%d, %v)", epoch, members, wantE, wantM)
	}
}

// TestHandoffKeepsCopyWhenTargetRefuses: a target that answers the "add"
// with anything but STORED/NOT_STORED (shedding under overload, refusing)
// never became authoritative, so the sender must keep its local copy and
// count errors — not drop the value cold.
func TestHandoffKeepsCopyWhenTargetRefuses(t *testing.T) {
	peer := newFakeNode(t)
	peer.mu.Lock()
	peer.storeReply = "SERVER_ERROR busy (shed)"
	peer.mu.Unlock()
	self := "127.0.0.1:7173"
	src := newFakeSource()
	m, p := newManager(t, self, []string{self}, Config{Source: src})

	for i := 0; i < 64; i++ {
		src.set(fmt.Sprintf("r%02d", i), []byte("v"), float64(i))
	}
	if err := m.Apply(2, []string{self, peer.addr()}, "test"); err != nil {
		t.Fatal(err)
	}
	var moved []string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("r%02d", i)
		if p.Owner(k) == peer.addr() {
			moved = append(moved, k)
		}
	}
	if len(moved) == 0 {
		t.Fatal("degenerate split: nothing moved")
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Handoff.Errors < uint64(len(moved)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := m.Stats().Handoff
	if st.Errors != uint64(len(moved)) || st.KeysSent != 0 {
		t.Fatalf("handoff stats %+v, want %d errors and 0 keys sent", st, len(moved))
	}
	for _, k := range moved {
		if !src.has(k) {
			t.Fatalf("key %q dropped cold after a refused add", k)
		}
		if _, ok := peer.get(k); ok {
			t.Fatalf("refusing peer somehow stored %q", k)
		}
	}
}

// TestAuthorizeSecret covers the shared-secret gate on mutating control
// bodies and its composition with wrapAuth.
func TestAuthorizeSecret(t *testing.T) {
	self := "127.0.0.1:7175"
	sec, _ := newManager(t, self, []string{self}, Config{HandoffRate: -1, Secret: "hunter2"})
	open, _ := newManager(t, "127.0.0.1:7176", []string{"127.0.0.1:7176"}, Config{HandoffRate: -1})

	payload := []byte("5 a:1,b:2")
	got, err := sec.Authorize(sec.wrapAuth(payload))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("Authorize(wrapAuth(x)) = (%q, %v)", got, err)
	}
	for _, bad := range [][]byte{[]byte("5 a:1,b:2"), []byte("wrong 5 a:1,b:2"), []byte("hunter2"), nil} {
		if _, err := sec.Authorize(bad); err == nil {
			t.Errorf("Authorize(%q) accepted without a valid token", bad)
		}
	}
	// No secret configured: bodies pass unchanged, wrapAuth is identity.
	got, err = open.Authorize(payload)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("open Authorize = (%q, %v)", got, err)
	}
	if string(open.wrapAuth(payload)) != string(payload) {
		t.Fatal("open wrapAuth is not the identity")
	}
}

// TestBroadcastCarriesSecret: a secreted manager's view pushes must be
// acceptable to an equally-secreted receiver — the token rides first.
func TestBroadcastCarriesSecret(t *testing.T) {
	peer := newFakeNode(t)
	self := "127.0.0.1:7177"
	m, _ := newManager(t, self, []string{self, peer.addr()}, Config{HandoffRate: -1, Secret: "hunter2"})
	if err := m.Join("127.0.0.1:7178"); err != nil {
		t.Fatal(err)
	}
	if peer.appliesSeen() == 0 {
		t.Fatal("peer never received the broadcast")
	}
	body, err := m.Authorize(peer.lastApply())
	if err != nil {
		t.Fatalf("broadcast body failed Authorize: %v", err)
	}
	if epoch, _, err := ParseView(body); err != nil || epoch != 2 {
		t.Fatalf("ParseView(authorized body) = (%d, %v)", epoch, err)
	}
}

// TestControlKeyRoundTripAgainstRealManager: the joiner-side JoinCluster
// handshake against a seed that is just a fakeNode cannot work (the fake
// never admits), so verify the timeout path is clean and bounded.
func TestJoinClusterTimesOutCleanly(t *testing.T) {
	self := "127.0.0.1:7151"
	m, _ := newManager(t, self, []string{self}, Config{HandoffRate: -1})
	start := time.Now()
	err := m.JoinCluster("127.0.0.1:1", 600*time.Millisecond)
	if err == nil {
		t.Fatal("join via a dead seed succeeded")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("join timeout took %v", e)
	}
}
