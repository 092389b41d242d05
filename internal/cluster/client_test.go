package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamakv/internal/proto"
)

// fakePeer is a minimal in-process Memcached peer for client tests: a
// key-value map plus knobs for per-request delay and hard connection drops.
type fakePeer struct {
	ln net.Listener

	mu   sync.Mutex
	data map[string][]byte

	// delay is slept before answering each request.
	delay atomic.Int64 // nanoseconds
	// dropAll makes the peer close every connection on arrival.
	dropAll atomic.Bool
	// dropNext closes the connection (instead of answering) for the next
	// N requests — a transient fault.
	dropNext atomic.Int32
	// dropAfter > 0 makes the peer answer that many more requests, then
	// close the connection on the next — a fault in the middle of a
	// pipelined exchange.
	dropAfter atomic.Int32
	// shedAll makes the peer answer every request with the overload shed
	// reply instead of serving it.
	shedAll  atomic.Bool
	requests atomic.Uint64
	conns    atomic.Uint64
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln, data: map[string][]byte{}}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *fakePeer) addr() string { return p.ln.Addr().String() }

func (p *fakePeer) set(key string, val []byte) {
	p.mu.Lock()
	p.data[key] = val
	p.mu.Unlock()
}

func (p *fakePeer) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.conns.Add(1)
		if p.dropAll.Load() {
			conn.Close()
			continue
		}
		go p.handle(conn)
	}
}

func (p *fakePeer) handle(conn net.Conn) {
	defer conn.Close()
	r := proto.NewParser(bufio.NewReader(conn))
	defer r.Close()
	w := bufio.NewWriter(conn)
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			return
		}
		p.requests.Add(1)
		if d := p.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if p.dropAll.Load() {
			return
		}
		if n := p.dropNext.Load(); n > 0 && p.dropNext.CompareAndSwap(n, n-1) {
			return
		}
		if n := p.dropAfter.Load(); n > 0 && p.dropAfter.CompareAndSwap(n, n-1) && n == 1 {
			p.dropNext.Store(1)
		}
		var out []byte
		if p.shedAll.Load() {
			out = proto.AppendShed(out)
			if _, err := w.Write(out); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
			continue
		}
		switch cmd.Name {
		case "get", "gets":
			p.mu.Lock()
			for _, k := range cmd.Keys {
				if v, ok := p.data[k]; ok {
					if cmd.Name == "gets" {
						out = proto.AppendValueCAS(out, k, 0, v, 7)
					} else {
						out = proto.AppendValue(out, k, 0, v)
					}
				}
			}
			p.mu.Unlock()
			out = proto.AppendEnd(out)
		case "set":
			p.set(strings.Clone(cmd.Keys[0]), bytes.Clone(cmd.Data))
			out = proto.AppendLine(out, "STORED")
		case "delete":
			p.mu.Lock()
			delete(p.data, cmd.Keys[0])
			p.mu.Unlock()
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

func TestClientGetAndPoolReuse(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("hello"))
	c := NewClient(peer.addr(), ClientOptions{PoolSize: 2})
	defer c.Close()

	for i := 0; i < 10; i++ {
		resp, err := c.Get("k", false, 0)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if len(resp.Values) != 1 || string(resp.Values[0].Data) != "hello" {
			t.Fatalf("Get %d: %+v", i, resp)
		}
	}
	if d := c.Stats().Dials; d != 1 {
		t.Errorf("10 sequential gets dialed %d times, want 1 (pool reuse)", d)
	}
	// A miss is a successful round trip with no VALUE blocks.
	resp, err := c.Get("absent", false, 0)
	if err != nil || len(resp.Values) != 0 || resp.Status != "END" {
		t.Fatalf("miss = (%+v, %v), want clean END", resp, err)
	}
}

// TestClientPoolBoundsConnections: a burst wider than the pool dials what it
// needs, and once it is over no more than PoolSize connections stay open —
// the overflow is closed, not leaked — and later requests reuse those.
func TestClientPoolBoundsConnections(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	const poolSize, burst = 2, 8
	c := NewClient(peer.addr(), ClientOptions{PoolSize: poolSize})
	defer c.Close()
	peer.delay.Store(int64(20 * time.Millisecond)) // keep the burst's requests in flight together
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get("k", false, 0); err != nil {
				t.Errorf("burst get: %v", err)
			}
		}()
	}
	wg.Wait()
	peer.delay.Store(0)
	c.connMu.Lock()
	open := len(c.live)
	c.connMu.Unlock()
	if open > poolSize {
		t.Errorf("%d connections open after the burst, want <= PoolSize %d", open, poolSize)
	}
	dials := c.Stats().Dials
	if dials <= poolSize {
		t.Fatalf("burst of %d dialed %d connections; it never outgrew the pool", burst, dials)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Get("k", false, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d := c.Stats().Dials; d != dials {
		t.Errorf("sequential gets after the burst dialed %d more connections", d-dials)
	}
}

func TestClientGetsCarriesCAS(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	c := NewClient(peer.addr(), ClientOptions{})
	defer c.Close()
	resp, err := c.Get("k", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 1 || resp.Values[0].CAS != 7 {
		t.Fatalf("gets = %+v, want CAS 7", resp)
	}
}

func TestClientDoSetDelete(t *testing.T) {
	peer := newFakePeer(t)
	c := NewClient(peer.addr(), ClientOptions{})
	defer c.Close()
	req := proto.AppendCommand(nil, &proto.Command{
		Name: "set", Keys: []string{"k"}, Data: []byte("zzz"),
	})
	resp, err := c.Do(req)
	if err != nil || resp.Status != "STORED" {
		t.Fatalf("set = (%+v, %v)", resp, err)
	}
	resp, err = c.Do(proto.AppendCommand(nil, &proto.Command{Name: "delete", Keys: []string{"k"}}))
	if err != nil || resp.Status != "DELETED" {
		t.Fatalf("delete = (%+v, %v)", resp, err)
	}
}

// TestExchangePipelinesReplies: n requests go out in one write on one
// connection and their replies come back in request order, error replies
// included; counters are per request.
func TestExchangePipelinesReplies(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("hello"))
	c := NewClient(peer.addr(), ClientOptions{})
	defer c.Close()
	req := []byte("get k\r\n")
	req = proto.AppendCommand(req, &proto.Command{Name: "set", Keys: []string{"k"}, Data: []byte("bye")})
	req = append(req, "gets k absent\r\ntouch k 1\r\n"...)
	var got []string
	x := c.Start(req, 4)
	err := x.Finish(func(i int, r *proto.Resp) {
		if i != len(got) {
			t.Errorf("reply %d delivered at position %d", i, len(got))
		}
		got = append(got, string(proto.AppendResp(nil, r, true)))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"VALUE k 0 5 0\r\nhello\r\nEND\r\n",
		"STORED\r\n",
		"VALUE k 0 3 7\r\nbye\r\nEND\r\n",
		"ERROR\r\n",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replies = %q, want %q", got, want)
	}
	st := c.Stats()
	if st.Requests != 4 || st.Dials != 1 || st.Latency.Count != 1 {
		t.Errorf("requests = %d, dials = %d, latency samples = %d, want 4, 1, 1", st.Requests, st.Dials, st.Latency.Count)
	}
}

// TestExchangeFailsWholeAfterPartialReplies: once the peer has answered
// part of an exchange it has executed that part, so a connection lost
// mid-replies fails the exchange without replaying its writes.
func TestExchangeFailsWholeAfterPartialReplies(t *testing.T) {
	peer := newFakePeer(t)
	c := NewClient(peer.addr(), ClientOptions{Retries: 2})
	defer c.Close()
	var req []byte
	for _, k := range []string{"a", "b", "c"} {
		req = proto.AppendCommand(req, &proto.Command{Name: "set", Keys: []string{k}, Data: []byte("v")})
	}
	peer.dropAfter.Store(1)
	x := c.Start(req, 3)
	seen := 0
	if err := x.Finish(func(int, *proto.Resp) { seen++ }); err == nil {
		t.Fatal("exchange cut after its first reply succeeded")
	}
	if seen != 1 {
		t.Errorf("callback saw %d replies before the cut, want 1", seen)
	}
	if st := c.Stats(); st.Retries != 0 || st.Errors != 3 {
		t.Errorf("retries = %d, errors = %d, want 0 (no replay of answered writes) and 3 (per request)", st.Retries, st.Errors)
	}
	if n := peer.requests.Load(); n != 2 {
		t.Errorf("peer saw %d requests, want 2 (one answered, one cut)", n)
	}
}

// TestExchangeDeadlineBoundsEachReply: the peer serves a pipelined exchange
// serially, so the op deadline bounds the wait for one reply, as it does for
// a lone request — an exchange whose replies together take longer than
// OpTimeout, each well inside it, succeeds.
func TestExchangeDeadlineBoundsEachReply(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	c := NewClient(peer.addr(), ClientOptions{OpTimeout: 200 * time.Millisecond, Retries: -1})
	defer c.Close()
	peer.delay.Store(int64(60 * time.Millisecond))
	const n = 6 // 360 ms of service in all
	var req []byte
	for i := 0; i < n; i++ {
		req = append(req, "get k\r\n"...)
	}
	x := c.Start(req, n)
	seen := 0
	if err := x.Finish(func(int, *proto.Resp) { seen++ }); err != nil || seen != n {
		t.Fatalf("exchange saw %d of %d replies, err = %v", seen, n, err)
	}
	// One reply slower than the deadline still fails the exchange.
	peer.delay.Store(int64(400 * time.Millisecond))
	x = c.Start(req[:len("get k\r\n")], 1)
	if err := x.Finish(func(int, *proto.Resp) {}); err == nil {
		t.Fatal("a reply slower than OpTimeout did not fail the exchange")
	}
}

// TestDeadlineDue: a deadline is due when it was never armed or less than
// 15/16 of its span is left, and not otherwise.
func TestDeadlineDue(t *testing.T) {
	const span = time.Hour
	var d Deadline
	if !d.Due(span) {
		t.Fatal("a deadline never armed is not due")
	}
	if d.Due(span) {
		t.Fatal("a deadline armed just now is due again")
	}
	d.by -= int64(span/16) - int64(time.Minute) // a minute short of a sixteenth gone
	if d.Due(span) {
		t.Fatal("a deadline with more than 15/16 of its span left is due")
	}
	d.by -= int64(2 * time.Minute) // now a minute past it
	if !d.Due(span) {
		t.Fatal("a deadline with less than 15/16 of its span left is not due")
	}
	if d.Due(span) {
		t.Fatal("re-arming did not push the deadline out")
	}
}

// TestExchangeDeadlineRearmsPerReply: the read deadline is re-armed only
// once a sixteenth of OpTimeout has passed since it was last armed, and that
// still bounds each reply, not the exchange: replies 0.75 × OpTimeout apart
// both arrive, and a peer that stays silent fails the exchange within
// OpTimeout, no sooner than 15/16 of it.
func TestExchangeDeadlineRearmsPerReply(t *testing.T) {
	const opTimeout = 400 * time.Millisecond
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	c := NewClient(peer.addr(), ClientOptions{OpTimeout: opTimeout, Retries: -1})
	defer c.Close()
	peer.delay.Store(int64(opTimeout * 3 / 4))
	req := []byte("get k\r\nget k\r\n")
	x := c.Start(req, 2)
	seen := 0
	if err := x.Finish(func(int, *proto.Resp) { seen++ }); err != nil || seen != 2 {
		t.Fatalf("replies 0.75 × OpTimeout apart: saw %d of 2, err = %v", seen, err)
	}

	// A silent peer: it reads the requests and never answers. The exchange
	// before it leaves a freshly armed deadline on the pooled connection, so
	// the silent one reads under a deadline it did not arm.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		conn, err := silent.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for i := 0; ; i++ {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			if i == 0 { // answer the first request only
				conn.Write([]byte("END\r\n"))
			}
		}
	}()
	mute := NewClient(silent.Addr().String(), ClientOptions{OpTimeout: opTimeout, Retries: -1})
	defer mute.Close()
	x = mute.Start([]byte("get k\r\n"), 1)
	if err := x.Finish(func(int, *proto.Resp) {}); err != nil {
		t.Fatalf("first exchange with the answering-once peer: %v", err)
	}
	start := time.Now()
	x = mute.Start([]byte("get k\r\n"), 1)
	done := make(chan error, 1)
	go func() { done <- x.Finish(func(int, *proto.Resp) {}) }()
	select {
	case err = <-done:
	case <-time.After(5 * opTimeout):
		t.Fatalf("an exchange with a silent peer still waits after 5 × %v", opTimeout)
	}
	took := time.Since(start)
	if err == nil {
		t.Fatal("an exchange with a silent peer succeeded")
	}
	if took < opTimeout*15/16-10*time.Millisecond || took > opTimeout+150*time.Millisecond {
		t.Fatalf("silent peer failed the exchange after %v, want between 15/16 and 1 × %v", took, opTimeout)
	}
}

func TestClientRetriesTransientFailure(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	c := NewClient(peer.addr(), ClientOptions{Retries: 2})
	defer c.Close()
	// Seed the pool with a healthy connection, then have the peer drop the
	// next request: the attempt on the now-stale pooled connection fails,
	// the retry dials fresh and succeeds.
	if _, err := c.Get("k", false, 0); err != nil {
		t.Fatal(err)
	}
	peer.dropNext.Store(1)
	resp, err := c.Get("k", false, 0)
	if err != nil {
		t.Fatalf("Get after drop: %v (stats %+v)", err, c.Stats())
	}
	if len(resp.Values) != 1 {
		t.Fatalf("Get after drop: %+v", resp)
	}
	if c.Stats().Retries == 0 {
		t.Error("expected at least one recorded retry")
	}
}

func TestClientBreakerOpensAndRecovers(t *testing.T) {
	peer := newFakePeer(t)
	peer.set("k", []byte("v"))
	c := NewClient(peer.addr(), ClientOptions{
		Retries:     -1, // no retries: each op is one attempt
		DialTimeout: 200 * time.Millisecond,
		Breaker:     BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
	})
	defer c.Close()
	peer.dropAll.Store(true)
	// Three consecutive failures open the circuit.
	for i := 0; i < 3; i++ {
		if _, err := c.Get("k", false, 0); err == nil {
			t.Fatalf("Get %d succeeded against dropping peer", i)
		}
	}
	if !c.Stats().BreakerOpen {
		t.Fatal("breaker closed after threshold failures")
	}
	// While open: fast-fail without touching the wire.
	if _, err := c.Get("k", false, 0); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("open-circuit Get = %v, want ErrPeerDown", err)
	}
	wire := peer.conns.Load()
	if _, err := c.Get("k", false, 0); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("open-circuit Get = %v, want ErrPeerDown", err)
	}
	if peer.conns.Load() != wire {
		t.Error("open circuit still dialed the peer")
	}
	// After the cooldown the half-open probe readmits a healthy peer.
	peer.dropAll.Store(false)
	time.Sleep(80 * time.Millisecond)
	resp, err := c.Get("k", false, 0)
	if err != nil || len(resp.Values) != 1 {
		t.Fatalf("post-recovery Get = (%+v, %v)", resp, err)
	}
	st := c.Stats()
	if st.BreakerOpen || st.BreakerOpens == 0 || st.FastFails < 2 {
		t.Errorf("post-recovery stats %+v", st)
	}
}

func TestClientClosed(t *testing.T) {
	peer := newFakePeer(t)
	c := NewClient(peer.addr(), ClientOptions{})
	c.Close()
	if _, err := c.Get("k", false, 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("closed Get = %v, want ErrClientClosed", err)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	var opens uint64
	b := newBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Minute}, &opens)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	b.failure()
	b.failure()
	if b.allow() {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}
	now = now.Add(2 * time.Minute)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.allow() {
		t.Fatal("breaker allowed a second concurrent half-open probe")
	}
	b.failure() // probe failed: re-open
	if b.allow() {
		t.Fatal("breaker closed after a failed probe")
	}
	now = now.Add(2 * time.Minute)
	if !b.allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.success()
	if !b.allow() || b.open() {
		t.Fatal("breaker still open after a successful probe")
	}
	if opens != 2 {
		t.Errorf("opens = %d, want 2", opens)
	}
}
