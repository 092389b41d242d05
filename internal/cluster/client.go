package cluster

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pamakv/internal/bufpool"
	"pamakv/internal/obs"
	"pamakv/internal/proto"
)

// ErrPeerDown reports a request rejected without touching the wire because
// the peer's circuit breaker is open.
var ErrPeerDown = errors.New("cluster: peer circuit open")

// ErrClientClosed reports a request on a closed client (the peer left the
// membership).
var ErrClientClosed = errors.New("cluster: peer client closed")

// Client connection defaults. One op spans write + peer-side service (which
// may include the peer's own backend fetch of up to the 5s penalty cap,
// scaled) + read, hence the generous op deadline.
const (
	DefaultPoolSize    = 4
	DefaultDialTimeout = 500 * time.Millisecond
	DefaultOpTimeout   = 3 * time.Second
	DefaultRetries     = 1
)

// ClientOptions tune one peer connection pool.
type ClientOptions struct {
	// PoolSize caps idle pooled connections; <= 0 means DefaultPoolSize.
	// In-flight connections are unbounded (each op holds at most one).
	PoolSize int
	// DialTimeout bounds establishing a connection; <= 0 means
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// OpTimeout bounds, per attempt, the write of an exchange's requests
	// and then the wait for each of its replies; <= 0 means
	// DefaultOpTimeout. The deadlines are re-armed only once a sixteenth
	// of OpTimeout has passed since they were last armed (see Deadline),
	// so each write and each reply is bounded by between 15/16 and 1 ×
	// OpTimeout.
	OpTimeout time.Duration
	// Retries is how many extra attempts an op gets after a transport
	// failure (a fresh connection each time); < 0 means none, 0 means
	// DefaultRetries.
	Retries int
	// Breaker tunes the per-peer circuit breaker.
	Breaker BreakerConfig
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = DefaultOpTimeout
	}
	if o.Retries == 0 {
		o.Retries = DefaultRetries
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	return o
}

// pconn is one pooled connection with its buffered endpoints. Replies are
// parsed in place by the connection's RespReader.
type pconn struct {
	c  net.Conn
	w  *bufio.Writer
	rr *proto.RespReader
	// The read and write deadlines last armed on c.
	readBy, writeBy Deadline
}

// Deadline is one of a connection's deadlines, tracked on the monotonic
// clock so that it is armed once per sixteenth of its span rather than on
// every use: arming costs more than reading a buffered reply or writing a
// small batch. Whenever Due is asked, the deadline is then between 15/16
// and 1 × its span away. Something else setting the connection's deadline
// (a drain's immediate one, say) stays in force until the next re-arm.
type Deadline struct{ by int64 }

// clockBase anchors monoNanos. time.Since of a time carrying a monotonic
// reading reads only the monotonic clock, half the cost of time.Now.
var clockBase = time.Now()

func monoNanos() int64 { return int64(time.Since(clockBase)) }

// Due reports whether the deadline must be armed span from now — it never
// was, or less than 15/16 of span is left of it — and if so records it as
// armed.
func (d *Deadline) Due(span time.Duration) bool {
	now := monoNanos()
	if d.by-now >= int64(span-span/16) {
		return false
	}
	d.by = now + int64(span)
	return true
}

// Client is a connection-pooled Memcached-text-protocol client for one peer.
// It is safe for concurrent use; every method may be called from many
// request goroutines at once.
type Client struct {
	addr string
	opts ClientOptions
	idle chan *pconn
	br   *breaker

	closed atomic.Bool
	// degraded halves the retry budget while the local node is shedding:
	// an overloaded node must not amplify load onto its peers.
	degraded atomic.Bool

	// live tracks every open connection, pooled or in flight, so Close
	// can tear all of them down immediately when the member is removed —
	// an in-flight op against a departed peer fails now, not at its op
	// deadline.
	connMu sync.Mutex
	live   map[net.Conn]struct{}

	// ctr is the live counter set, bumped with atomic.AddUint64 and
	// loaded by Stats (obs.Load).
	ctr *ClientCounters
	lat *obs.Hist
}

// NewClient builds a pooled client for the peer at addr. No connection is
// dialed until the first request.
func NewClient(addr string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	ctr := new(ClientCounters)
	return &Client{
		addr: addr,
		opts: opts,
		idle: make(chan *pconn, opts.PoolSize),
		br:   newBreaker(opts.Breaker, &ctr.BreakerOpens),
		ctr:  ctr,
		lat:  obs.NewHist(1e-6, 7),
		live: make(map[net.Conn]struct{}),
	}
}

// Addr returns the peer's address.
func (c *Client) Addr() string { return c.addr }

// Close closes every connection — pooled and in flight — immediately.
// In-flight ops fail with a transport error (their reads/writes abort on
// the closed socket); subsequent ops fail with ErrClientClosed. This is
// what membership removal relies on: a departed member's pool must not
// linger until idle-reaped.
func (c *Client) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for {
		select {
		case pc := <-c.idle:
			c.drop(pc)
		default:
			c.connMu.Lock()
			for conn := range c.live {
				conn.Close()
				delete(c.live, conn)
			}
			c.connMu.Unlock()
			return
		}
	}
}

// get acquires a pooled connection or dials a new one. Closed clients
// refuse immediately, so retry loops of in-flight ops fail fast after a
// member removal instead of re-dialing the departed peer.
func (c *Client) get() (*pconn, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	select {
	case pc := <-c.idle:
		return pc, nil
	default:
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&c.ctr.Dials, 1)
	c.connMu.Lock()
	if c.closed.Load() {
		c.connMu.Unlock()
		conn.Close()
		return nil, ErrClientClosed
	}
	c.live[conn] = struct{}{}
	c.connMu.Unlock()
	return &pconn{
		c:  conn,
		w:  bufio.NewWriterSize(conn, 1<<14),
		rr: proto.NewRespReader(bufio.NewReaderSize(conn, 1<<14)),
	}, nil
}

// drop closes a connection and forgets it. Double-drops (Close racing an
// in-flight op's own error path) are harmless.
func (c *Client) drop(pc *pconn) {
	pc.c.Close()
	c.connMu.Lock()
	delete(c.live, pc.c)
	c.connMu.Unlock()
}

// put returns a healthy connection to the pool, closing it if the pool is
// full or the client is closed.
func (c *Client) put(pc *pconn) {
	if c.closed.Load() {
		c.drop(pc)
		return
	}
	select {
	case c.idle <- pc:
	default:
		c.drop(pc)
	}
}

// send writes req — one or more requests rendered back to back — to a pooled
// (or fresh) connection under the op deadline and flushes it. The connection
// comes back holding the replies; a failure closes it.
func (c *Client) send(req []byte) (*pconn, error) {
	pc, err := c.get()
	if err != nil {
		return nil, err
	}
	if pc.writeBy.Due(c.opts.OpTimeout) {
		pc.c.SetWriteDeadline(time.Now().Add(c.opts.OpTimeout))
	}
	if _, err := pc.w.Write(req); err != nil {
		c.drop(pc)
		return nil, err
	}
	if err := pc.w.Flush(); err != nil {
		c.drop(pc)
		return nil, err
	}
	return pc, nil
}

// recv reads the n replies owed on pc in order, handing each to fn, and
// returns the connection to the pool. The op deadline bounds each reply: the
// peer serves a pipelined exchange serially (read-through fetches included),
// so the deadline bounds one reply, as it does for a lone request, not the
// sum of them (re-armed as Deadline says). A transport failure closes the
// connection; got reports how many replies fn saw before it. A parsed reply
// (even an error reply) is a success.
func (c *Client) recv(pc *pconn, n int, fn func(i int, r *proto.Resp)) (got int, err error) {
	for got < n {
		if pc.readBy.Due(c.opts.OpTimeout) {
			pc.c.SetReadDeadline(time.Now().Add(c.opts.OpTimeout))
		}
		r, err := pc.rr.Next()
		if err != nil {
			c.drop(pc)
			return got, err
		}
		fn(got, r)
		got++
	}
	c.put(pc)
	return got, nil
}

// SetDegraded flips load-amplification avoidance: while degraded, the
// retry budget halves. The server sets this when its overload controller
// leaves TierNormal.
func (c *Client) SetDegraded(d bool) { c.degraded.Store(d) }

// Degraded reports whether the client is in degraded (shedding) mode.
func (c *Client) Degraded() bool { return c.degraded.Load() }

// retryBudget is the transport-retry allowance for one op: the configured
// Retries, halved while degraded.
func (c *Client) retryBudget() int {
	if c.degraded.Load() {
		return c.opts.Retries / 2
	}
	return c.opts.Retries
}

// attempt completes one exchange whose first send has already been made
// (pc, err are its outcome), with the configured bounded retries. Each retry
// uses a fresh connection (the failed one was closed), which also flushes
// stale pooled connections that the peer idled out. Only an attempt that
// failed before its first reply is retried: once the peer has answered a
// prefix it has executed it, and replaying those requests would apply their
// writes twice behind replies the caller already holds.
func (c *Client) attempt(pc *pconn, err error, req []byte, n int, fn func(i int, r *proto.Resp)) error {
	budget := c.retryBudget()
	for try := 0; ; try++ {
		got := 0
		if err == nil {
			got, err = c.recv(pc, n, fn)
		}
		if err == nil || got > 0 || try >= budget || c.closed.Load() {
			return err
		}
		atomic.AddUint64(&c.ctr.Retries, 1)
		pc, err = c.send(req)
	}
}

// Exchange is one pipelined round trip with the peer, split in two so a
// caller with requests for several peers can write to all of them before it
// waits on any: Start puts the requests on the wire, Finish reads the
// replies. Every Start must be followed by exactly one Finish (the circuit
// breaker's half-open probe is settled there). An Exchange is used by one
// goroutine.
type Exchange struct {
	c     *Client
	req   []byte
	n     int
	start time.Time

	// pc, err are the first send's outcome; refused marks an exchange the
	// breaker (or a closed client) turned away before any attempt.
	pc      *pconn
	err     error
	refused bool
}

// Start sends req — n requests rendered back to back (see
// proto.AppendCommand), each owed exactly one reply — on one connection. It
// consults the circuit breaker first. req must stay untouched until Finish
// returns.
func (c *Client) Start(req []byte, n int) Exchange {
	x := Exchange{c: c, req: req, n: n}
	switch {
	case c.closed.Load():
		x.err, x.refused = ErrClientClosed, true
		return x
	case !c.br.allow():
		atomic.AddUint64(&c.ctr.FastFails, uint64(n))
		x.err, x.refused = ErrPeerDown, true
		return x
	}
	atomic.AddUint64(&c.ctr.Requests, uint64(n))
	x.start = time.Now()
	x.pc, x.err = c.send(req)
	return x
}

// Finish reads the exchange's n replies and hands them to fn in request
// order on the calling goroutine; each *proto.Resp is valid only during its
// call. On error fn has seen a prefix of the replies (possibly none), all
// from the single attempt that got that far — an attempt is only retried
// while it has shown fn nothing — so the peer has executed those requests: a
// caller reporting per request may keep them and fail the rest, a relay may
// discard them and fail the lot. Error replies are successful exchanges;
// only transport failures are errors, and only they trip the breaker.
func (x *Exchange) Finish(fn func(i int, r *proto.Resp)) error {
	c := x.c
	if x.refused {
		return x.err
	}
	err := c.attempt(x.pc, x.err, x.req, x.n, fn)
	c.lat.Observe(time.Since(x.start).Seconds())
	if err != nil {
		atomic.AddUint64(&c.ctr.Errors, uint64(x.n))
		c.br.failure()
		return err
	}
	c.br.success()
	return nil
}

// Do sends one pre-rendered request (see proto.AppendCommand) and returns
// the peer's response: the one-request exchange, for callers that keep the
// reply.
func (c *Client) Do(req []byte) (*proto.Response, error) {
	return c.one(req)
}

// Get retrieves one key (gets semantics — the CAS token rides along — when
// withCAS). The last argument is ignored: it outlives hedged reads only
// because the benchmark module still passes it.
func (c *Client) Get(key string, withCAS bool, _ time.Duration) (*proto.Response, error) {
	verb := "get "
	if withCAS {
		verb = "gets "
	}
	reqBuf := bufpool.Get(0)
	defer bufpool.Put(reqBuf)
	*reqBuf = append(append(append((*reqBuf)[:0], verb...), key...), '\r', '\n')
	return c.one(*reqBuf)
}

// one runs a one-request exchange and copies the reply out.
func (c *Client) one(req []byte) (*proto.Response, error) {
	var resp *proto.Response
	x := c.Start(req, 1)
	err := x.Finish(func(_ int, r *proto.Resp) { resp = r.Response() })
	return resp, err
}

// ClientStats is a point-in-time snapshot of one peer client.
type ClientStats struct {
	ClientCounters
	// BreakerOpen reports whether the circuit is rejecting right now.
	BreakerOpen bool `json:"breaker_open" prom:"pamakv_peer_breaker_open" help:"Whether the peer's circuit is rejecting right now."`
	// Latency is the per-exchange round-trip histogram, Start to Finish.
	Latency obs.HistSnapshot `json:"latency" prom:"pamakv_peer_request_seconds" help:"Peer round-trip latency, one observation per exchange."`
}

// ClientCounters are one peer client's monotonic counters.
type ClientCounters struct {
	// Requests counts requests admitted past the breaker (each command of
	// a pipelined exchange counts).
	Requests uint64 `json:"requests" prom:"pamakv_peer_requests_total" help:"Ops admitted past the peer's circuit breaker."`
	// Errors counts requests that failed at transport level after retries.
	Errors uint64 `json:"errors" prom:"pamakv_peer_errors_total" help:"Ops failed at transport level after retries."`
	// Retries counts per-attempt transport retries (one per exchange
	// re-sent).
	Retries uint64 `json:"retries" prom:"pamakv_peer_retries_total" help:"Per-attempt transport retries."`
	// Dials counts new connections established.
	Dials uint64 `json:"dials" prom:"pamakv_peer_dials_total" help:"Connections established to the peer."`
	// FastFails counts requests rejected by the open breaker without
	// touching the wire.
	FastFails uint64 `json:"fast_fails" prom:"pamakv_peer_fast_fails_total" help:"Ops rejected by the open breaker without touching the wire."`
	// BreakerOpens counts how many times the circuit opened.
	BreakerOpens uint64 `json:"breaker_opens" prom:"pamakv_peer_breaker_opens_total" help:"Times the peer's circuit opened."`
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		ClientCounters: obs.Load(c.ctr),
		BreakerOpen:    c.br.open(),
		Latency:        c.lat.Snapshot(),
	}
}

// HedgePolicy is empty: peer reads are never hedged.
//
// Deprecated: the type outlives hedged reads only because the benchmark
// module still sets Config.Hedge.
type HedgePolicy struct{}

// DefaultHedgePolicy returns the empty HedgePolicy.
//
// Deprecated: see HedgePolicy.
func DefaultHedgePolicy() HedgePolicy { return HedgePolicy{} }
