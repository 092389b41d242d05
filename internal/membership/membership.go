// Package membership turns the static cluster tier into a runtime one: a
// Manager on every node holds an epoch-versioned member list, drives
// cluster.Peers.SetMembers when the view changes, probes its peers and
// evicts the dead ones with hysteresis, and — the part the PAMA paper
// cares about — streams the keys whose arc changed hands from the old
// owner to the new one, highest miss penalty first, so the post-change
// cache is warm exactly where a cold miss would hurt most (see handoff.go).
//
// # View propagation
//
// Views ride the existing Memcached text protocol as reserved control
// keys, so no wire-format change (and no parser change) is needed:
//
//	set __pamakv.m.apply 0 0 N   body "epoch addr1,addr2,..."  → STORED
//	set __pamakv.m.join  0 0 N   body "addr"                   → STORED
//	get __pamakv.m.view          → VALUE body "epoch addr1,..."
//
// The server intercepts the "__pamakv.m." prefix ahead of admission
// control and routing: membership traffic must pass precisely when the
// node is overloaded or mid-reroute.
//
// # Epochs
//
// Every view carries an epoch. Apply refuses an epoch lower than the
// current one. An *equal* epoch with a different member list means two
// nodes proposed concurrently (say both auto-evicted different peers
// during a partition); that tie is broken deterministically — the
// lexicographically smaller encoded view wins on every node. The winner's
// push is adopted by the loser; the loser's push is refused, and the
// refused pusher pulls the winner's view (syncFrom) and adopts it, so
// both sides converge on one view immediately instead of staying split
// until an unrelated later epoch bump. A proposal whose intent lost the
// tie (an eviction, a join) is simply re-proposed later at a higher epoch
// by the probe loop or the retrying joiner. Equal epoch with an identical
// list is an idempotent no-op, so broadcast echoes converge silently. A
// node that finds itself outside the new view enters proxy mode
// (cluster.Peers allows a selector without self): it owns nothing,
// forwards everything, and drains its residents to their new owners —
// that is what a graceful drain is.
//
// # Trust model
//
// Control keys ride the data port, so anything that can reach the
// memcached port can speak membership — a strictly stronger capability
// than cache writes (a forged apply could hijack or dissolve the ring).
// Like memcached itself, the data port is assumed to live on a trusted
// network segment. Where that assumption is too weak, configure the same
// Config.Secret on every member: the mutating control keys (apply, join)
// must then carry the token and are refused otherwise (`-membership-secret`
// on pama-server). The view GET stays open — it exposes topology, not
// control. The secret authenticates peers on an honest network; it does
// not encrypt traffic and is no substitute for network-level isolation.
package membership

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pamakv/internal/cluster"
	"pamakv/internal/obs"
	"pamakv/internal/proto"
)

// Control keys: reserved keys carrying membership traffic over the normal
// data port. The prefix contains no tenant separator and is short enough
// for proto.CheckKey.
const (
	controlPrefix = "__pamakv.m."
	// KeyApply is SET with body "epoch addr1,addr2,..." to push a view.
	KeyApply = controlPrefix + "apply"
	// KeyJoin is SET with body "addr" to ask a member to admit a node.
	KeyJoin = controlPrefix + "join"
	// KeyView is GET to read the current view as "epoch addr1,addr2,...".
	KeyView = controlPrefix + "view"
)

// IsControlKey reports whether key is membership control traffic that the
// server must intercept before admission control and peer routing.
func IsControlKey(key string) bool { return strings.HasPrefix(key, controlPrefix) }

// EncodeView renders a view as the wire body "epoch addr1,addr2,...".
func EncodeView(epoch uint64, members []string) []byte {
	b := strconv.AppendUint(nil, epoch, 10)
	b = append(b, ' ')
	return append(b, strings.Join(members, ",")...)
}

// ParseView parses EncodeView's rendering.
func ParseView(body []byte) (uint64, []string, error) {
	s := strings.TrimSpace(string(body))
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return 0, nil, fmt.Errorf("membership: malformed view %q", s)
	}
	epoch, err := strconv.ParseUint(s[:sp], 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("membership: bad epoch in view %q: %w", s, err)
	}
	members := strings.Split(s[sp+1:], ",")
	return epoch, cluster.NormalizeMembers(members), nil
}

// Health states of a remote member as seen by the local prober.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
)

// Defaults for Config's zero values.
const (
	DefaultProbeInterval = 1 * time.Second
	DefaultProbeTimeout  = 500 * time.Millisecond
	DefaultSuspectAfter  = 3
	DefaultEvictAfter    = 6
	DefaultEvictCooldown = 10 * time.Second
	DefaultHandoffRate   = 4096
)

// handoffBatch is how many keys a warm handoff sends between pacing sleeps.
const handoffBatch = 32

// Config configures a Manager.
type Config struct {
	// Self is this node's data address as it appears in member lists.
	Self string
	// Peers is the routing table the manager drives.
	Peers *cluster.Peers

	// ProbeInterval is the health-probe cadence; 0 means
	// DefaultProbeInterval, < 0 disables probing (membership changes
	// then only happen via admin endpoints and pushed views).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip.
	ProbeTimeout time.Duration
	// SuspectAfter is the consecutive probe failures that mark a member
	// suspect; EvictAfter the count that proposes its eviction. One
	// probe success resets the counter (hysteresis: a flapping member
	// bounces between alive and suspect without being evicted).
	SuspectAfter int
	EvictAfter   int
	// EvictCooldown is the minimum gap between auto-evictions proposed
	// by this node — the churn-storm gate: a partition that kills probes
	// to several peers at once evicts them one cooldown apart, leaving
	// time for hit-ratio recovery (and for an operator to intervene)
	// instead of collapsing the ring in one storm.
	EvictCooldown time.Duration

	// HandoffRate caps warm-handoff streaming in keys/second; 0 means
	// DefaultHandoffRate, < 0 disables warm handoff entirely (membership
	// changes become cold rebalances — the baseline fig_churn compares
	// against).
	HandoffRate int

	// Source is the engine the warm handoff scans and streams from; nil
	// makes every membership change a cold rebalance.
	Source Source
	// Tier returns the local overload pressure tier (overload.Tier*);
	// nil means always normal. Handoff yields under pressure: it slows
	// at strained and pauses at critical.
	Tier func() int

	// Secret, when non-empty, gates the mutating control keys: outgoing
	// view pushes and join requests carry it as a leading token, and
	// incoming ones must present it (Authorize) or they are refused.
	// Every member and joiner must share the same value; it must not
	// contain whitespace. See the package's trust-model doc.
	Secret string

	// Probe overrides the health probe (tests inject failures); nil uses
	// a TCP dial + "version" round trip.
	Probe func(addr string) error

	// Logger receives membership transitions; nil disables logging.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.EvictAfter <= c.SuspectAfter {
		c.EvictAfter = c.SuspectAfter + DefaultEvictAfter - DefaultSuspectAfter
	}
	if c.EvictCooldown <= 0 {
		c.EvictCooldown = DefaultEvictCooldown
	}
	if c.HandoffRate == 0 {
		c.HandoffRate = DefaultHandoffRate
	}
	return c
}

// memberHealth is the prober's view of one remote member.
type memberHealth struct {
	state string
	fails int
}

// Manager is one node's membership state machine. Safe for concurrent use.
type Manager struct {
	cfg  Config
	self string

	mu      sync.Mutex
	epoch   uint64
	members []string
	health  map[string]*memberHealth
	// lastEvict gates auto-evictions (EvictCooldown).
	lastEvict time.Time
	ho        *handoff

	stopC   chan struct{}
	stopped bool
	wg      sync.WaitGroup

	// ctr is the live counter set, bumped with atomic.AddUint64 and
	// loaded by Stats (obs.Load).
	ctr      *counters
	hoActive atomic.Bool

	probeLat *obs.Hist
	hoDur    *obs.Hist
}

// New builds a Manager seeded from the routing table's current member
// list at epoch 1. Call Start to begin probing and Stop on shutdown.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("membership: Self is required")
	}
	if cfg.Peers == nil {
		return nil, errors.New("membership: Peers is required")
	}
	m := &Manager{
		cfg:      cfg,
		self:     cfg.Self,
		epoch:    1,
		members:  cluster.NormalizeMembers(cfg.Peers.Members()),
		health:   make(map[string]*memberHealth),
		stopC:    make(chan struct{}),
		ctr:      new(counters),
		probeLat: obs.NewHist(1e-6, 7),
		hoDur:    obs.NewHist(1e-4, 7),
	}
	m.syncHealthLocked()
	return m, nil
}

// Start launches the health-probe loop (no-op when probing is disabled).
func (m *Manager) Start() {
	if m.cfg.ProbeInterval < 0 {
		return
	}
	m.wg.Add(1)
	go m.probeLoop()
}

// Stop halts probing and aborts any in-flight handoff, then waits for the
// manager's goroutines.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	close(m.stopC)
	if m.ho != nil {
		m.ho.abortOnce()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// View returns the current epoch and member list.
func (m *Manager) View() (uint64, []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch, append([]string(nil), m.members...)
}

// Epoch returns the current membership epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// IsMember reports whether addr is in the current view.
func (m *Manager) IsMember(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.isMemberLocked(addr)
}

func (m *Manager) isMemberLocked(addr string) bool {
	for _, mm := range m.members {
		if mm == addr {
			return true
		}
	}
	return false
}

// equalView reports member-list equality (both sides normalized).
func equalView(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// viewWins reports whether the incoming member list beats the current one
// in the equal-epoch tie-break: the lexicographically smaller encoded view
// wins. Every node evaluates the same pure comparison, so concurrent
// proposals at one epoch converge to a single winner cluster-wide.
func viewWins(epoch uint64, incoming, current []string) bool {
	return string(EncodeView(epoch, incoming)) < string(EncodeView(epoch, current))
}

// Apply installs view (epoch, members) if it supersedes the current one:
// the routing table is swapped first (cutover), then the warm handoff of
// keys this node no longer owns starts in the background. An epoch lower
// than the current one is refused, which is what makes stale routing
// pushes detectable instead of silently regressive. An equal epoch with a
// different member list is a concurrent-proposal conflict, resolved by
// the deterministic tie-break (viewWins): the winning view is adopted,
// the losing one refused — the refused pusher then pulls the winner via
// syncFrom, so both proposers converge. origin is only for logs.
func (m *Manager) Apply(epoch uint64, members []string, origin string) error {
	members = cluster.NormalizeMembers(members)
	if len(members) == 0 {
		return errors.New("membership: refusing empty member list")
	}
	m.mu.Lock()
	if epoch < m.epoch {
		atomic.AddUint64(&m.ctr.Refusals, 1)
		cur := m.epoch
		m.mu.Unlock()
		return fmt.Errorf("membership: epoch %d is stale (have %d)", epoch, cur)
	}
	if epoch == m.epoch {
		if equalView(members, m.members) {
			m.mu.Unlock()
			return nil // idempotent echo
		}
		if !viewWins(epoch, members, m.members) {
			atomic.AddUint64(&m.ctr.Refusals, 1)
			cur := m.epoch
			m.mu.Unlock()
			return fmt.Errorf("membership: conflicting view at epoch %d loses tie-break (have %d members)", epoch, cur)
		}
		// The incoming view wins the tie-break: fall through and install
		// it at the same epoch, exactly as if it were newer.
	}
	if err := m.cfg.Peers.SetMembers(members); err != nil {
		m.mu.Unlock()
		return err
	}
	m.epoch = epoch
	m.members = append([]string(nil), members...)
	m.syncHealthLocked()
	atomic.AddUint64(&m.ctr.Applies, 1)
	m.startHandoffLocked(epoch)
	m.mu.Unlock()
	m.logf("membership: applied epoch %d (%d members, from %s)", epoch, len(members), origin)
	return nil
}

// syncHealthLocked reconciles the health map with the member list.
func (m *Manager) syncHealthLocked() {
	keep := make(map[string]struct{}, len(m.members))
	for _, mm := range m.members {
		keep[mm] = struct{}{}
		if mm != m.self {
			if _, ok := m.health[mm]; !ok {
				m.health[mm] = &memberHealth{state: StateAlive}
			}
		}
	}
	for addr := range m.health {
		if _, ok := keep[addr]; !ok {
			delete(m.health, addr)
		}
	}
}

// Join admits addr: the proposer bumps the epoch, applies locally, and
// broadcasts the new view to every member including the joiner. Idempotent
// for an existing member — but since the admission broadcast is best
// effort, a joiner whose view push was lost (socket not yet ready, blip)
// retries Join and lands on the idempotent path while already in the
// ring; the current view is re-sent to it there, so it learns the
// membership instead of timing out while peers route keys its way.
func (m *Manager) Join(addr string) error {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return errors.New("membership: empty join address")
	}
	m.mu.Lock()
	if m.isMemberLocked(addr) {
		epoch := m.epoch
		body := EncodeView(epoch, m.members)
		m.mu.Unlock()
		if resp, err := m.send(addr, renderControlSet(KeyApply, m.wrapAuth(body))); err != nil {
			m.logf("membership: view re-push to %s failed: %v", addr, err)
		} else if resp.Status != proto.StatusStored {
			m.logf("membership: %s refused view re-push at epoch %d: %s %s",
				addr, epoch, resp.Status, resp.Message)
		}
		return nil
	}
	next := append(append([]string(nil), m.members...), addr)
	m.mu.Unlock()
	atomic.AddUint64(&m.ctr.Joins, 1)
	return m.propose(next, "join "+addr)
}

// Remove evicts addr from the view. The removed node is still told about
// the new view (best effort): a live removed node applies it, finds itself
// outside the ring, and drains its residents to the new owners — removing
// self is therefore exactly a graceful drain.
func (m *Manager) Remove(addr string) error {
	addr = strings.TrimSpace(addr)
	m.mu.Lock()
	if !m.isMemberLocked(addr) {
		m.mu.Unlock()
		return fmt.Errorf("membership: %q is not a member", addr)
	}
	if len(m.members) == 1 {
		m.mu.Unlock()
		return errors.New("membership: refusing to remove the last member")
	}
	next := make([]string, 0, len(m.members)-1)
	for _, mm := range m.members {
		if mm != addr {
			next = append(next, mm)
		}
	}
	m.mu.Unlock()
	return m.propose(next, "remove "+addr)
}

// Drain removes self: routing flips to the surviving members and this
// node streams everything it holds to the new owners (highest penalty
// first). Poll Stats().Handoff until Active is false, then shut down.
func (m *Manager) Drain() error { return m.Remove(m.self) }

// propose applies members at epoch+1 locally and broadcasts the view to
// the union of the old and new member lists (minus self).
func (m *Manager) propose(members []string, why string) error {
	m.mu.Lock()
	next := m.epoch + 1
	targets := make(map[string]struct{}, len(m.members)+len(members))
	for _, mm := range m.members {
		targets[mm] = struct{}{}
	}
	for _, mm := range members {
		targets[mm] = struct{}{}
	}
	m.mu.Unlock()
	if err := m.Apply(next, members, "local: "+why); err != nil {
		return err
	}
	m.broadcast(next, cluster.NormalizeMembers(members), targets)
	return nil
}

// broadcast pushes a view to every target in parallel and waits. A target
// that refuses the view as stale holds a newer one; its view is pulled and
// applied locally so the cluster converges instead of ping-ponging.
func (m *Manager) broadcast(epoch uint64, members []string, targets map[string]struct{}) {
	body := EncodeView(epoch, members)
	req := renderControlSet(KeyApply, m.wrapAuth(body))
	var wg sync.WaitGroup
	for addr := range targets {
		if addr == m.self {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			resp, err := m.send(addr, req)
			if err != nil {
				m.logf("membership: push epoch %d to %s failed: %v", epoch, addr, err)
				return
			}
			if resp.Status != proto.StatusStored {
				m.logf("membership: %s refused epoch %d: %s %s", addr, epoch, resp.Status, resp.Message)
				m.syncFrom(addr)
			}
		}(addr)
	}
	wg.Wait()
}

// renderControlSet renders "set <key> 0 0 <len>\r\n<body>\r\n".
func renderControlSet(key string, body []byte) []byte {
	return proto.AppendCommand(nil, &proto.Command{
		Verb: proto.VerbSet, Keys: []string{key}, Data: body,
	})
}

// wrapAuth prefixes a mutating control-key body with the shared secret
// (identity when none is configured). The inverse of Authorize.
func (m *Manager) wrapAuth(body []byte) []byte {
	if m.cfg.Secret == "" {
		return body
	}
	out := make([]byte, 0, len(m.cfg.Secret)+1+len(body))
	out = append(out, m.cfg.Secret...)
	out = append(out, ' ')
	return append(out, body...)
}

// Authorize validates the shared-secret token on the body of a mutating
// control key (apply, join) and returns the payload with the token
// stripped. With no secret configured every body passes unchanged — the
// trust boundary is then the network, as documented in the package doc.
func (m *Manager) Authorize(body []byte) ([]byte, error) {
	if m.cfg.Secret == "" {
		return body, nil
	}
	sp := -1
	for i, b := range body {
		if b == ' ' {
			sp = i
			break
		}
	}
	if sp < 0 || subtle.ConstantTimeCompare(body[:sp], []byte(m.cfg.Secret)) != 1 {
		return nil, errors.New("membership: bad or missing auth token")
	}
	return body[sp+1:], nil
}

// send routes a control request through the pooled peer client when addr
// is a current member, or a one-shot dial otherwise (a joiner talking to
// its seed, a proposer notifying a removed node).
func (m *Manager) send(addr string, req []byte) (*proto.Response, error) {
	if cl := m.cfg.Peers.ClientFor(addr); cl != nil {
		return cl.Do(req)
	}
	return dialDo(addr, req, 2*time.Second)
}

// dialDo runs one request/response round trip with a node outside the member
// list, on a throw-away transport: one connection, one attempt.
func dialDo(addr string, req []byte, timeout time.Duration) (*proto.Response, error) {
	cl := cluster.NewClient(addr, cluster.ClientOptions{DialTimeout: timeout, OpTimeout: timeout, Retries: -1})
	defer cl.Close()
	return cl.Do(req)
}

// syncFrom pulls addr's view and applies it if it supersedes the local
// one — strictly newer, or winning the equal-epoch tie-break (the
// convergence half of a refused concurrent proposal).
func (m *Manager) syncFrom(addr string) {
	resp, err := m.send(addr, proto.AppendCommand(nil, &proto.Command{Verb: proto.VerbGet, Keys: []string{KeyView}}))
	if err != nil || len(resp.Values) == 0 {
		return
	}
	epoch, members, err := ParseView(resp.Values[0].Data)
	if err != nil {
		return
	}
	if err := m.Apply(epoch, members, "sync from "+addr); err == nil {
		m.logf("membership: adopted epoch %d from %s", epoch, addr)
	}
}

// JoinCluster runs the joiner side of -join: ask seed to admit Self, then
// wait until the seed's broadcast lands and this node is in the view. The
// local server must already be listening (the admission broadcast arrives
// on the data port). Retries until timeout.
func (m *Manager) JoinCluster(seed string, timeout time.Duration) error {
	if seed == m.self {
		return errors.New("membership: cannot join via self")
	}
	req := renderControlSet(KeyJoin, m.wrapAuth([]byte(m.self)))
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := dialDo(seed, req, 2*time.Second)
		switch {
		case err != nil:
			lastErr = err
		case resp.Status != proto.StatusStored:
			lastErr = fmt.Errorf("membership: seed %s: %s %s", seed, resp.Status, resp.Message)
		default:
			// Admitted. The seed broadcast the view before replying, but
			// poll briefly in case our apply raced the reply.
			for i := 0; i < 40; i++ {
				if m.IsMember(m.self) && m.Epoch() > 1 {
					return nil
				}
				time.Sleep(50 * time.Millisecond)
			}
			// The broadcast push was lost (our socket raced the seed's
			// send, or the network blipped): pull the view directly
			// instead of waiting for the next retry's re-push.
			m.syncFrom(seed)
			if m.IsMember(m.self) && m.Epoch() > 1 {
				return nil
			}
			lastErr = errors.New("membership: admitted but view never arrived")
		}
		select {
		case <-m.stopC:
			return errors.New("membership: stopped")
		case <-time.After(250 * time.Millisecond):
		}
	}
	return fmt.Errorf("membership: join via %s timed out: %w", seed, lastErr)
}

// ---- Health probing ----

func (m *Manager) probeLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopC:
			return
		case <-t.C:
			m.probeOnce()
		}
	}
}

// probe runs one health check against addr.
func (m *Manager) probe(addr string) error {
	if m.cfg.Probe != nil {
		return m.cfg.Probe(addr)
	}
	resp, err := dialDo(addr, proto.AppendCommand(nil, &proto.Command{Verb: proto.VerbVersion}), m.cfg.ProbeTimeout)
	if err != nil {
		return err
	}
	if resp.Status != proto.StatusVersion {
		return fmt.Errorf("membership: probe of %s: unexpected %s", addr, resp.Status)
	}
	return nil
}

// probeOnce probes every remote member in parallel, updates health states
// with hysteresis, and — cooldown permitting — proposes at most one
// eviction.
func (m *Manager) probeOnce() {
	m.mu.Lock()
	addrs := make([]string, 0, len(m.health))
	for addr := range m.health {
		addrs = append(addrs, addr)
	}
	m.mu.Unlock()
	sort.Strings(addrs)

	type outcome struct {
		addr string
		err  error
	}
	results := make([]outcome, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			start := time.Now()
			err := m.probe(addr)
			m.probeLat.Observe(time.Since(start).Seconds())
			results[i] = outcome{addr, err}
		}(i, addr)
	}
	wg.Wait()

	var evict string
	m.mu.Lock()
	for _, r := range results {
		h, ok := m.health[r.addr]
		if !ok {
			continue // departed while probing
		}
		atomic.AddUint64(&m.ctr.Probes, 1)
		if r.err == nil {
			// Hysteresis: one good probe fully recovers a suspect.
			if h.state == StateSuspect {
				m.logf("membership: %s recovered", r.addr)
			}
			h.state, h.fails = StateAlive, 0
			continue
		}
		atomic.AddUint64(&m.ctr.ProbeFailures, 1)
		h.fails++
		if h.fails >= m.cfg.SuspectAfter && h.state != StateSuspect {
			h.state = StateSuspect
			atomic.AddUint64(&m.ctr.Suspects, 1)
			m.logf("membership: %s suspect after %d failed probes", r.addr, h.fails)
		}
		if h.fails >= m.cfg.EvictAfter && evict == "" {
			evict = r.addr
		}
	}
	// Eviction gate: only a current member steers the ring, only one
	// eviction per cooldown, never below one member.
	if evict != "" {
		if !m.isMemberLocked(m.self) || len(m.members) <= 1 ||
			time.Since(m.lastEvict) < m.cfg.EvictCooldown {
			evict = ""
		} else {
			m.lastEvict = time.Now()
		}
	}
	m.mu.Unlock()
	if evict != "" {
		atomic.AddUint64(&m.ctr.Evictions, 1)
		m.logf("membership: evicting unresponsive member %s", evict)
		if err := m.Remove(evict); err != nil {
			m.logf("membership: eviction of %s failed: %v", evict, err)
		}
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}

// ---- Stats ----

// MemberStatus is one member row in Stats.
type MemberStatus struct {
	Addr string `json:"addr"`
	// State is "self", "alive", or "suspect".
	State string `json:"state"`
	// ProbeFails is the current consecutive-failure count.
	ProbeFails int `json:"probe_fails,omitempty"`
}

// HandoffStats aggregates warm-handoff progress counters.
type HandoffStats struct {
	Active bool `json:"active" prom:"pamakv_handoff_active" help:"Whether a warm handoff is streaming now."`
	HandoffCounters
	Duration obs.HistSnapshot `json:"duration_seconds" prom:"pamakv_handoff_seconds" help:"Wall-clock duration of completed handoff runs."`
}

// HandoffCounters are the warm handoff's monotonic counters.
type HandoffCounters struct {
	Runs        uint64 `json:"runs" prom:"pamakv_handoff_runs_total" help:"Warm-handoff runs started."`
	KeysPlanned uint64 `json:"keys_planned" prom:"pamakv_handoff_keys_planned_total" help:"Keys scheduled for streaming."`
	KeysSent    uint64 `json:"keys_sent" prom:"pamakv_handoff_keys_total" help:"Keys streamed to their new owner."`
	BytesSent   uint64 `json:"bytes_sent" prom:"pamakv_handoff_bytes_total" help:"Value bytes streamed to new owners."`
	Errors      uint64 `json:"errors" prom:"pamakv_handoff_errors_total" help:"Keys whose stream attempt failed."`
	Aborts      uint64 `json:"aborts" prom:"pamakv_handoff_aborts_total" help:"Handoff runs aborted by a newer view."`
}

// Stats is a point-in-time snapshot of the membership state machine.
type Stats struct {
	Self     string         `json:"self"`
	Epoch    uint64         `json:"epoch" prom:"pamakv_member_epoch" help:"Current membership epoch."`
	Draining bool           `json:"draining" prom:"pamakv_member_draining" help:"Whether this node is outside the ring, draining."`
	Members  []MemberStatus `json:"members"`

	Counters

	ProbeLatency obs.HistSnapshot `json:"probe_latency" prom:"pamakv_member_probe_seconds" help:"Health-probe round-trip latency."`
	Handoff      HandoffStats     `json:"handoff"`
}

// Counters are the state machine's monotonic counters.
type Counters struct {
	Applies       uint64 `json:"applies" prom:"pamakv_member_applies_total" help:"Views applied (epoch advanced)."`
	Refusals      uint64 `json:"refusals" prom:"pamakv_member_refusals_total" help:"Stale or conflicting views refused."`
	Joins         uint64 `json:"joins" prom:"pamakv_member_joins_total" help:"Join proposals originated here."`
	Suspects      uint64 `json:"suspects" prom:"pamakv_member_suspects_total" help:"Alive-to-suspect transitions observed."`
	Evictions     uint64 `json:"evictions" prom:"pamakv_member_evictions_total" help:"Auto-evictions proposed by this node."`
	Probes        uint64 `json:"probes" prom:"pamakv_member_probes_total" help:"Health probes sent."`
	ProbeFailures uint64 `json:"probe_failures" prom:"pamakv_member_probe_failures_total" help:"Health probes failed."`
}

// counters is a Manager's live counter set.
type counters struct {
	Counters
	Handoff HandoffCounters
}

// Stats snapshots the manager.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	members := make([]MemberStatus, 0, len(m.members))
	selfIn := false
	for _, addr := range m.members {
		ms := MemberStatus{Addr: addr, State: StateAlive}
		if addr == m.self {
			ms.State = "self"
			selfIn = true
		} else if h, ok := m.health[addr]; ok {
			ms.State = h.state
			ms.ProbeFails = h.fails
		}
		members = append(members, ms)
	}
	epoch := m.epoch
	m.mu.Unlock()
	ctr := obs.Load(m.ctr)
	return Stats{
		Self:         m.self,
		Epoch:        epoch,
		Draining:     !selfIn,
		Members:      members,
		Counters:     ctr.Counters,
		ProbeLatency: m.probeLat.Snapshot(),
		Handoff: HandoffStats{
			Active:          m.hoActive.Load(),
			HandoffCounters: ctr.Handoff,
			Duration:        m.hoDur.Snapshot(),
		},
	}
}
