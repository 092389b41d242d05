// Package server exposes the cache engine over the Memcached ASCII protocol
// (package proto) on a TCP listener, one goroutine per connection.
//
// The serving path is built to stay predictable when clients or the backend
// misbehave:
//
//   - Pipelining: a connection's already-buffered requests are parsed and
//     dispatched as one batch and answered with a single flush, instead of
//     strict request-reply lockstep (one write syscall per burst). In
//     cluster mode the batch is two-phase: commands owned by a remote peer
//     are queued while the batch is parsed and travel in one pipelined
//     exchange per owner before the flush (see peerbatch.go).
//   - Deadlines: per-connection read (idle) and write (flush) deadlines
//     bound how long a stalled peer can pin a goroutine.
//   - Backpressure: MaxConns caps concurrent connections; the accept loop
//     blocks when the cap is reached, leaving excess dials in the kernel
//     backlog instead of admitting unbounded goroutines.
//   - Graceful shutdown: Shutdown stops accepting, wakes idle connections,
//     lets in-flight batches complete and flush, and only force-closes
//     connections that outlive the drain window.
//
// The server can optionally run in read-through mode with a simulated
// back-end store: a GET miss fetches the value from the backend (paying its
// scaled miss penalty in real time), refills the cache with the penalty
// attached, and serves the value — the GET-miss → SET pattern the paper's
// penalty estimation is built on, live on a socket. Backend fetches can be
// bounded by a per-attempt timeout, retried with exponential backoff, and —
// when the engine keeps a stale buffer (cache.Config.Stale) — degraded
// to serve-stale instead of surfacing a miss when the backend stays down.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pamakv/internal/backend"
	"pamakv/internal/bufpool"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/kv"
	"pamakv/internal/membership"
	"pamakv/internal/obs"
	"pamakv/internal/overload"
	"pamakv/internal/penalty"
	"pamakv/internal/proto"
	"pamakv/internal/tenant"
	"pamakv/internal/valuetable"
)

// Command families for latency attribution. Reads and writes have different
// latency floors (a GET miss may pay a backend fetch; a SET never does), so
// one merged histogram would hide exactly the effect the paper prices.
const (
	famGet = iota
	famSet
	famDelete
	famDelta
	famOther
	numFams
)

// famNames label the families in Latencies() and /metrics.
var famNames = [numFams]string{"get", "set", "delete", "delta", "other"}

// famOf maps a protocol verb to its latency family.
func famOf(v proto.Verb) uint8 {
	switch {
	case v.Reads():
		return famGet
	case v.Stores():
		return famSet
	case v == proto.VerbDelete:
		return famDelete
	case v == proto.VerbIncr || v == proto.VerbDecr:
		return famDelta
	default:
		return famOther
	}
}

// itemOverhead is the per-item metadata charged to the slab slot: the item's
// record, which heads its slot as Memcached's item header heads its chunk.
const itemOverhead = int(unsafe.Sizeof(kv.Item{}))

// Defaults for the hardening knobs (chosen, not magic: a 64-deep batch
// bounds response buffering at ~64 MiB worst case; 5 s is the common
// load-balancer drain budget).
const (
	DefaultMaxPipeline  = 64
	DefaultDrainTimeout = 5 * time.Second
)

// Per-connection scratch sizing. Buffers start small and grow to the
// workload; after each flush any buffer that outgrew maxRetainedScratch is
// released, so one 1 MiB value does not pin a megabyte on every idle
// connection for the rest of its life. valueFraming bounds the bytes a VALUE
// reply adds around its key and body.
const (
	initialScratch     = 4 << 10
	maxRetainedScratch = 64 << 10
	valueFraming       = 64
)

// connScratch is a connection's reusable serving state. Together with the
// proto.Parser it makes the request→response path allocation-free in steady
// state: the response accumulates in out, engine values are copied into
// val, and both buffers live for the connection (capacity-capped after each
// flush). out lives in bufpool buffers: it grows by trading up to a larger
// one, and an oversized out goes back to the pool, where the next large
// reply on any connection finds it.
type connScratch struct {
	out []byte // response batch buffer
	val []byte // engine value copy target (Get/GetWithCAS/GetStale)

	// chunk is the part of the batch parsed but not yet served, and keys
	// the keys of its commands this node serves, handed to Store.Prefetch
	// before it is served.
	chunk []chunkEntry
	keys  []string
	// Cluster mode only (see routeChunk): the chunk's keys routed, one
	// route per key in chunk order, and the hashes of its plain-get keys
	// owned by a remote peer, handed to the hot cache's prefetch.
	routes []keyRoute
	hotHs  []uint64

	// Cluster mode only (see peerbatch.go): the batch's commands awaiting a
	// remote owner, the one exchange per owner that carries them, and the
	// owners' replies rendered for this connection's client.
	deferred  []deferredCmd
	exchanges []peerExchange
	rep       []byte

	// The connection's read and write deadlines, armed once per sixteenth
	// of ReadTimeout and WriteTimeout.
	readBy, writeBy cluster.Deadline
}

// chunkEntry is one request of a chunk: a parsed command, valid until the
// parser releases the chunk, or the CLIENT_ERROR message that answers a
// malformed one in its place.
type chunkEntry struct {
	cmd *proto.Command // nil for a malformed request
	msg string
	rt  int // cluster mode: index in connScratch.routes of its first key's route
}

// keyRoute is where one key of a chunk is served: its kv.HashString hash,
// which the hot cache takes, and the remote member that owns it ("" when
// this node does).
type keyRoute struct {
	h     uint64
	owner string
}

// rehouse moves out into a pooled buffer of capacity n or more and gives the
// buffer it was in to the pool. (Boxing a slice for the pool costs 24 bytes;
// it happens when a reply outgrows out, not per request.)
func rehouse(out []byte, n int) []byte {
	moved := append((*bufpool.Get(n))[:0], out...)
	bufpool.Put(&out)
	return moved
}

// capScratch releases oversized buffers after a flush.
func (sc *connScratch) capScratch() {
	if cap(sc.out) > maxRetainedScratch {
		sc.out = rehouse(sc.out[:0], initialScratch)
	}
	if cap(sc.val) > maxRetainedScratch {
		// Dropped, not pooled: the engine grows val by appending (Store hands
		// it a buffer, not a size), so nothing would take out of the pool
		// what every large hit put in.
		sc.val = nil
	}
	if cap(sc.rep) > maxRetainedScratch {
		sc.rep = nil
	}
	all := sc.exchanges[:cap(sc.exchanges)]
	for i := range all {
		if cap(all[i].req) > maxRetainedScratch {
			all[i].req = nil
		}
	}
}

// ErrFetchTimeout reports a backend fetch attempt cut off by
// Options.FetchTimeout.
var ErrFetchTimeout = errors.New("server: backend fetch timed out")

// Store is the cache surface the server drives: satisfied by *cache.Cache
// (one engine) and *shard.Group (engines behind one route: by hash, or by
// tenant and then hash). The callee copies what it retains: the keys and
// values it is handed alias the connection's read buffer (or parser-owned
// copies), both reused when the call returns.
//
// Every data command is one call: the stores (set, add, replace, cas, append,
// prepend, the read-through fill) are SetMode, incr/decr Delta, touch Touch,
// delete Delete. The server calls no Set; the method stays because the
// benchmark module's traced store (benchmark/inproc.go) forwards it.
type Store interface {
	Get(key string, sizeHint int, penHint float64, buf []byte) ([]byte, uint32, bool)
	GetWithCAS(key string, buf []byte) ([]byte, uint32, uint64, bool)
	// CASOf is the token of the item a read-through fill stored (cache.CASOf).
	CASOf(key string, flags uint32, value []byte) uint64
	GetStale(key string, buf []byte) ([]byte, uint32, bool)
	Set(key string, size int, pen float64, flags uint32, value []byte) error
	SetMode(key string, mode cache.SetMode, cas uint64, size int, pen float64, flags uint32, expireAt int64, value []byte) error
	Delete(key string) bool
	Touch(key string, expireAt int64) bool
	Delta(key string, delta uint64, decr bool) (uint64, error)
	Flush()
	Stats() cache.Stats
	Items() int
	SnapshotSlabs() []int
	PolicyName() string
	// Prefetch loads the memory the keys' coming operations will read and
	// changes nothing else (cache.Prefetch).
	Prefetch(keys []string)
}

// Options configure a Server.
type Options struct {
	// Backend enables read-through on GET misses.
	Backend *backend.Store
	// Logger receives connection-level errors; nil disables logging.
	Logger *log.Logger

	// ReadTimeout is the idle deadline: the longest the server waits for
	// the next request (or the rest of a partially sent one) before
	// closing the connection. 0 waits forever. Like WriteTimeout it is
	// re-armed once per sixteenth of itself (cluster.Deadline), so the
	// wait allowed is between 15/16 and 1 × ReadTimeout.
	ReadTimeout time.Duration
	// WriteTimeout bounds flushing one response batch to a slow reader.
	// 0 waits forever.
	WriteTimeout time.Duration
	// MaxConns caps concurrent connections; at the cap the accept loop
	// blocks (kernel-backlog backpressure) instead of admitting more.
	// 0 means unlimited.
	MaxConns int
	// MaxPipeline caps how many pipelined requests are served before the
	// write buffer is flushed; 0 means DefaultMaxPipeline.
	MaxPipeline int
	// DrainTimeout bounds graceful shutdown: connections still busy after
	// this window are force-closed. 0 means DefaultDrainTimeout.
	DrainTimeout time.Duration

	// FetchTimeout bounds one backend fetch attempt; 0 waits for the
	// backend however long it takes.
	FetchTimeout time.Duration
	// FetchRetries is how many extra attempts a failed backend fetch
	// gets before the GET degrades: to the store's stale copy when it
	// keeps a stale buffer (GetStale), else to a miss.
	FetchRetries int
	// FetchBackoff is slept before the first retry and doubles per
	// retry; 0 retries immediately.
	FetchBackoff time.Duration

	// Overload is the penalty-aware admission controller: each data
	// command passes through it before dispatch, and under pressure the
	// server degrades in tiers (aggressive serve-stale, no hot-cache
	// backfill, suppressed cheap fetches, shed cheap reads and writes)
	// instead of queueing without bound. The peers and the membership
	// manager read the same controller's tier (cluster.Config.Tier,
	// membership.Config.Tier). The server closes it on Shutdown. Nil
	// disables admission control entirely.
	Overload *overload.Controller

	// Tenants is the tenant registry for multi-tenant serving. When set,
	// each key's namespace prefix resolves its tenant, the tenant's SLO
	// class demotes the request's effective penalty subclass at admission
	// (best-effort tenants shed before premium ones), and per-tenant
	// accounting appears in /statsz and the metrics endpoint once the
	// registry names its arbiter (Registry.SetArbiter). The store routes
	// by the same registry (tenant.NewGroup). Nil serves single-tenant.
	Tenants *tenant.Registry

	// Cluster enables the peer tier: keys this node does not own are
	// forwarded to their owning peer, and only the owner fills from the
	// backend. The server does not take ownership of the Peers — the
	// caller closes it after Shutdown.
	Cluster *cluster.Peers
	// HotCacheBytes bounds the non-owner mini-cache of forwarded GET
	// hits (cluster mode only); 0 means cluster.DefaultHotCacheBytes,
	// negative disables the hot cache.
	HotCacheBytes int64
	// HotCacheTTL bounds the staleness of a hot-cached forwarded copy;
	// 0 means cluster.DefaultHotCacheTTL.
	HotCacheTTL time.Duration

	// Membership is the runtime membership manager (cluster mode only;
	// nil keeps the member list static). The server intercepts the
	// manager's control keys ahead of admission control and routing. The
	// caller builds it with the engine as its handoff Source and owns its
	// lifecycle (Start/Stop).
	Membership *membership.Manager
}

// Stats are server-level counters — connections and serving-path health, as
// opposed to the engine-level cache.Stats. All monotonic except CurrConns.
// The four groups are shown where their subsystem runs (see admin.go); in
// JSON they are one flat object. The tags are each counter's one declaration
// (package obs), and a Server's live counters are a Stats of its own.
type Stats struct {
	ConnStats
	FetchStats
	ShedStats
	PeerStats
}

// ConnStats count connections and the serving loop.
type ConnStats struct {
	// Conns counts connections ever accepted; CurrConns is the number
	// open now.
	Conns     uint64 `prom:"pamakv_connections_total" help:"Connections ever accepted." stat:"total_connections"`
	CurrConns uint64 `prom:"pamakv_connections" help:"Connections open now." stat:"curr_connections"`
	// ClientErrors counts malformed requests (the client's fault:
	// protocol errors, oversized lines, bad operands).
	ClientErrors uint64 `prom:"pamakv_client_errors_total" help:"Malformed requests."`
	// ServerErrors counts SERVER_ERROR replies (the server's fault: the
	// engine rejected an operation it should have handled).
	ServerErrors uint64 `prom:"pamakv_server_errors_total" help:"SERVER_ERROR replies."`
	// IOErrors counts socket read/write failures other than clean EOF
	// and idle timeouts.
	IOErrors uint64 `prom:"pamakv_io_errors_total" help:"Socket failures."`
	// IdleTimeouts counts connections closed by ReadTimeout.
	IdleTimeouts uint64 `prom:"pamakv_idle_timeouts_total" help:"Connections closed by the idle deadline."`
	// ForcedCloses counts connections killed because they outlived the
	// shutdown drain window.
	ForcedCloses uint64 `prom:"pamakv_forced_closes_total" help:"Connections killed because they outlived the shutdown drain window."`
	// Batches counts response flushes; BatchedCmds counts requests
	// served across them (BatchedCmds/Batches = mean pipeline depth).
	Batches     uint64 `prom:"pamakv_response_batches_total" help:"Pipelined response flushes."`
	BatchedCmds uint64 `prom:"pamakv_batched_commands_total" help:"Requests served across batches."`
	// StaleServes counts GETs answered from the stale buffer, after a
	// backend failure or preemptively under overload pressure.
	StaleServes uint64 `prom:"pamakv_stale_serves_total" help:"GETs degraded to a stale value."`
}

// FetchStats count the read-through fetch chain: BackendRetries the
// re-attempts, BackendTimeouts the attempts cut by FetchTimeout,
// BackendFailures the chains that exhausted their retries.
type FetchStats struct {
	BackendRetries  uint64 `prom:"pamakv_backend_retries_total" help:"Backend fetch re-attempts."`
	BackendTimeouts uint64 `prom:"pamakv_backend_timeouts_total" help:"Backend attempts cut by FetchTimeout."`
	BackendFailures uint64 `prom:"pamakv_backend_failures_total" help:"Fetch chains that exhausted retries."`
}

// ShedStats count what admission control refused.
type ShedStats struct {
	// Sheds counts requests refused at admission with SERVER_ERROR busy
	// (shed) by the overload controller.
	Sheds uint64 `prom:"pamakv_sheds_total" help:"Requests refused at admission with a shed reply."`
	// FetchSheds counts GET misses whose backend fetch was suppressed by
	// the overload tier (the miss was served as a miss instead of paying
	// the fetch).
	FetchSheds uint64 `prom:"pamakv_shed_fetches_total" help:"Backend fetches suppressed by the overload tier."`
	// PeerSheds counts forwarded requests the owning peer refused with a
	// shed reply (served as a miss / relayed verbatim, never retried
	// against the backend).
	PeerSheds uint64 `prom:"pamakv_peer_sheds_total" help:"Forwards the owning peer refused with a shed reply."`
}

// PeerStats count the cluster tier's forwarding.
type PeerStats struct {
	// PeerForwards counts requests relayed to an owning peer (cluster
	// mode); PeerHits the forwarded GETs the peer answered with a value.
	PeerForwards uint64 `prom:"pamakv_cluster_forwards_total" help:"Requests relayed to an owning peer." stat:"peer_forwards"`
	PeerHits     uint64 `prom:"pamakv_cluster_peer_hits_total" help:"Forwarded GETs the owner answered with a value." stat:"peer_hits"`
	// PeerErrors counts forwards that failed at transport level (after
	// the peer client's retries); PeerFallbacks the subset
	// of failed GET forwards that degraded to a local backend fetch.
	PeerErrors    uint64 `prom:"pamakv_cluster_peer_errors_total" help:"Forwards failed at transport level." stat:"peer_errors"`
	PeerFallbacks uint64 `prom:"pamakv_cluster_fallbacks_total" help:"Failed GET forwards degraded to a local backend fetch." stat:"peer_fallbacks"`
	// HotHits counts GETs of remote-owned keys answered from the local
	// hot-item mini-cache without touching the owner (/metrics has it as
	// the hot cache's own hit counter).
	HotHits uint64 `stat:"hot_hits"`
	// PeerExchanges counts pipelined peer exchanges (one write, one
	// in-order read of replies, per owner per batch); PeerExchangedCmds
	// the forwards they carried (PeerExchangedCmds/PeerExchanges = mean
	// forwards per exchange, the peer-side twin of BatchedCmds/Batches).
	PeerExchanges     uint64 `prom:"pamakv_cluster_exchanges_total" help:"Pipelined peer exchanges (one per owner per batch)." stat:"peer_exchanges"`
	PeerExchangedCmds uint64 `prom:"pamakv_cluster_exchanged_commands_total" help:"Forwards carried across peer exchanges." stat:"peer_exchanged_commands"`
}

// Server serves the cache over TCP. Construct with New.
type Server struct {
	c    Store
	opts Options

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// doneC closes when Shutdown begins; handlers treat it as the drain
	// signal.
	doneC chan struct{}
	// sem is the MaxConns semaphore (nil = unlimited).
	sem chan struct{}

	// st is the live counter set: the hot path bumps it with
	// atomic.AddUint64, Stats loads it (obs.Load).
	st *Stats

	// peers is the cluster routing table (nil outside cluster mode); hot
	// is the non-owner mini-cache of forwarded hits; mem is the runtime
	// membership manager (nil with a static member list).
	peers *cluster.Peers
	hot   *valuetable.Table
	mem   *membership.Manager

	// ctrl is the overload admission controller (nil when disabled).
	ctrl *overload.Controller

	// lat holds one request-latency histogram per command family, measured
	// from the arrival of the command's batch to the batch's response flush
	// (the client-visible interval minus the wire). Buckets span [1µs, 10s)
	// on a log scale.
	lat [numFams]*obs.Hist
}

// New returns a Server for the given store (a single engine or a shard
// group), which should have been built with StoreValues: true; without it
// GETs return empty bodies.
func New(c Store, opts Options) *Server {
	s := &Server{c: c, opts: opts, conns: make(map[net.Conn]struct{}), doneC: make(chan struct{}), st: new(Stats), ctrl: opts.Overload}
	if opts.MaxConns > 0 {
		s.sem = make(chan struct{}, opts.MaxConns)
	}
	for i := range s.lat {
		s.lat[i] = obs.NewHist(1e-6, 7)
	}
	if opts.Cluster != nil {
		s.peers = opts.Cluster
		if opts.HotCacheBytes >= 0 {
			s.hot = cluster.NewHotCache(opts.HotCacheBytes, opts.HotCacheTTL)
		}
	}
	if opts.Membership != nil && s.peers != nil {
		s.mem = opts.Membership
	}
	return s
}

// Overload returns the admission controller, or nil when overload control is
// disabled.
func (s *Server) Overload() *overload.Controller { return s.ctrl }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		if s.sem != nil {
			// Accept-loop backpressure: do not even accept past
			// MaxConns; excess dials queue in the kernel backlog.
			select {
			case s.sem <- struct{}{}:
			case <-s.doneC:
				return nil
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			if s.sem != nil {
				<-s.sem
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			if s.sem != nil {
				<-s.sem
			}
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		atomic.AddUint64(&s.st.Conns, 1)
		atomic.AddUint64(&s.st.CurrConns, 1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Addr returns the bound listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stats returns a copy of the server-level counters.
func (s *Server) Stats() Stats { return obs.Load(s.st) }

// HotCacheStats snapshots the hot-item mini-cache; ok is false outside
// cluster mode (or when the hot cache is disabled).
func (s *Server) HotCacheStats() (st valuetable.Stats, ok bool) {
	if s.hot == nil {
		return valuetable.Stats{}, false
	}
	return s.hot.Stats(), true
}

// Latencies snapshots the per-family request-latency histograms, keyed by
// family name ("get", "set", "delete", "delta", "other"). Latency is
// measured from batch arrival to response flush: pipelined requests in one
// batch were all in the read buffer when the first of them parsed and share
// one flush, so each carries its queueing delay behind its batch mates — the
// client's view. The clock is read twice per batch, not per command.
func (s *Server) Latencies() map[string]obs.HistSnapshot {
	m := make(map[string]obs.HistSnapshot, numFams)
	for i, h := range s.lat {
		m[famNames[i]] = h.Snapshot()
	}
	return m
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.doneC:
		return true
	default:
		return false
	}
}

// Shutdown stops accepting and drains: idle connections are woken and
// closed, in-flight batches complete and flush their responses, and
// connections still busy after DrainTimeout are force-closed. Safe to call
// more than once.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.doneC)
	if s.ln != nil {
		s.ln.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()

	// Flush the admission queue: waiters are shed (their connections get a
	// shed reply and drain), in-flight requests finish normally.
	if s.ctrl != nil {
		s.ctrl.Close()
	}

	// Wake handlers blocked waiting for a request: an expired read
	// deadline unblocks them, they notice the drain and exit after
	// flushing whatever they owe. Handlers mid-batch are not reading and
	// finish their batch first.
	now := time.Now()
	for _, conn := range conns {
		conn.SetReadDeadline(now)
	}

	drain := s.opts.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(drain)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
			atomic.AddUint64(&s.st.ForcedCloses, 1)
		}
		s.mu.Unlock()
		<-done
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		atomic.AddUint64(&s.st.CurrConns, ^uint64(0))
		if s.sem != nil {
			<-s.sem
		}
	}()
	r := bufio.NewReaderSize(conn, 1<<16)
	maxBatch := s.opts.MaxPipeline
	if maxBatch <= 0 {
		maxBatch = DefaultMaxPipeline
	}
	// The parser and scratch are the connection's reusable hot-path state:
	// commands parse in place, keys and data blocks are views into r's
	// buffer, and responses accumulate in one buffer reused across every
	// batch of the connection's life (capacity-capped after each flush).
	p := proto.NewParser(r)
	defer p.Close()
	sc := &connScratch{out: rehouse(nil, initialScratch)}
	defer func() { out := sc.out; bufpool.Put(&out) }() // the connection's last buffer goes back too
	for {
		// Block for the next request under the idle deadline. Left as it
		// is, an immediate deadline set by Shutdown wakes the read.
		if s.opts.ReadTimeout > 0 && sc.readBy.Due(s.opts.ReadTimeout) {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		p.BeginChunk()
		cmd, err := p.ReadCommand()
		if err != nil {
			p.ReleaseChunk()
			if fatal := s.readError(conn, sc, err); fatal {
				return
			}
			// Recoverable protocol error: reply and keep serving.
			sc.out = proto.AppendStatusMsg(sc.out[:0], proto.StatusClientError, clientMsg(err))
			if !s.flush(conn, sc) {
				return
			}
			continue
		}
		// One clock stamp for the whole batch: every command served below was
		// already in the read buffer when the first one parsed, so the batch's
		// arrival is each command's arrival as its client saw it.
		arrived := time.Now()
		var served [numFams]uint64
		sc.out = sc.out[:0]
		sc.chunk = append(sc.chunk[:0], chunkEntry{cmd: cmd})
		batch := 1

		// Pipelining: serve every request the client already sent before
		// paying for a flush, so an N-deep burst costs one write syscall.
		// Bounded by maxBatch to cap response buffering. The batch is
		// parsed ahead in chunks, each served whole before the next is
		// parsed: the chunk's keys are prefetched, then its commands run in
		// arrival order.
		var quit bool
		var batchErr error
		for first := true; ; first = false {
			var n int
			n, quit, batchErr = parseAhead(p, sc, maxBatch-batch)
			batch += n
			more := !quit && batchErr == nil && batch < maxBatch && p.Ready()
			s.serveChunk(sc, &served, !first || more)
			p.ReleaseChunk()
			if !more {
				break
			}
			p.BeginChunk()
		}
		atomic.AddUint64(&s.st.Batches, 1)
		atomic.AddUint64(&s.st.BatchedCmds, uint64(batch))
		if len(sc.deferred) > 0 {
			s.completeDeferred(sc)
		}
		if !s.flush(conn, sc) {
			return
		}
		sc.capScratch()
		// The flush is the moment the whole batch became visible to the
		// client; observe every request against it.
		took := time.Since(arrived).Seconds()
		for fam, n := range served {
			s.lat[fam].ObserveN(took, n)
		}
		if quit {
			return
		}
		if batchErr != nil {
			if fatal := s.readError(conn, sc, batchErr); fatal {
				return
			}
			sc.out = proto.AppendStatusMsg(sc.out[:0], proto.StatusClientError, clientMsg(batchErr))
			if !s.flush(conn, sc) {
				return
			}
		}
		if s.draining() && !p.Ready() {
			return
		}
	}
}

// parseAhead appends to sc.chunk the requests the client has already sent:
// while the parser is ready (proto.Parser.Ready), up to budget commands,
// until a quit,
// until the chunk holds maxRetainedScratch bytes of data blocks (a chunk's
// buffers stay out of the pool until it is served), and before a command
// not wholly buffered, unless it is the chunk's first: reading it would
// refill the buffer the chunk's keys and blocks are views into. The next
// chunk starts with that command. A malformed request becomes an entry of
// its own; any other read error ends the parse and is returned. It reports
// how many commands it parsed and whether the chunk ends in a quit.
func parseAhead(p *proto.Parser, sc *connScratch, budget int) (n int, quit bool, err error) {
	if k := len(sc.chunk); k > 0 && sc.chunk[k-1].cmd != nil {
		quit = sc.chunk[k-1].cmd.Verb == proto.VerbQuit
	}
	for !quit && n < budget && p.Ready() && p.ChunkData() < maxRetainedScratch {
		cmd, rerr := p.ReadCommand()
		if rerr == proto.ErrUnbuffered {
			break
		}
		if rerr != nil {
			var ce *proto.ClientError
			if errors.As(rerr, &ce) && !errors.Is(rerr, os.ErrDeadlineExceeded) {
				sc.chunk = append(sc.chunk, chunkEntry{msg: ce.Msg})
				continue
			}
			return n, false, rerr
		}
		sc.chunk = append(sc.chunk, chunkEntry{cmd: cmd})
		n++
		quit = cmd.Verb == proto.VerbQuit
	}
	return n, quit, nil
}

// serveChunk routes and prefetches the keys of sc.chunk (routeChunk; split
// reports that its batch spans more chunks than this one), then serves its
// requests into sc.out in arrival order, each through serve as if it had
// arrived alone, counting every command in its latency family.
func (s *Server) serveChunk(sc *connScratch, served *[numFams]uint64, split bool) {
	s.routeChunk(sc, split)
	for _, e := range sc.chunk {
		if e.cmd == nil {
			atomic.AddUint64(&s.st.ClientErrors, 1)
			sc.out = proto.AppendStatusMsg(sc.out, proto.StatusClientError, e.msg)
			continue
		}
		served[famOf(e.cmd.Verb)]++
		var rt []keyRoute
		if s.peers != nil {
			rt = sc.routes[e.rt : e.rt+len(e.cmd.Keys)]
		}
		sc.out = s.serve(sc, sc.out, e.cmd, rt)
	}
	sc.chunk = sc.chunk[:0]
}

// routeChunk is the chunk router: in cluster mode it hashes every key of
// sc.chunk once and resolves its owner from the hash, all against one view
// of the membership, loaded once. It is the one place internal/server hashes
// a key or asks the ring (TestOneRoutePerKey). It then prefetches what the
// chunk's commands are about to read: the keys this node serves through
// Store.Prefetch, and the remote keys of plain gets through the hot cache,
// each when there are two or more (a lone key has nothing to overlap with),
// or any when its batch spans more chunks (split): parseAhead also ends a
// chunk where the read buffer ends, and a key that split leaves alone is
// still part of a burst, prefetched whatever size of refill the kernel
// handed over. Membership control keys are
// neither stored nor routed (serve answers them first), so they are not
// prefetched.
func (s *Server) routeChunk(sc *connScratch, split bool) {
	keys, routes, hot := sc.keys[:0], sc.routes[:0], sc.hotHs[:0]
	var ring *cluster.Ring
	var self string
	if s.peers != nil {
		ring, self = s.peers.Ring(), s.peers.Self()
	}
	for i := range sc.chunk {
		e := &sc.chunk[i]
		switch {
		case e.cmd == nil:
		case ring == nil:
			keys = append(keys, e.cmd.Keys...)
		case len(e.cmd.Keys) > 0 && membership.IsControlKey(e.cmd.Keys[0]):
			e.rt = len(routes)
			routes = append(routes, make([]keyRoute, len(e.cmd.Keys))...)
		default:
			e.rt = len(routes)
			toHot := e.cmd.Verb == proto.VerbGet && s.hot != nil
			for _, k := range e.cmd.Keys {
				r := keyRoute{h: kv.HashString(k)}
				if owner := ring.OwnerHash(r.h); owner != "" && owner != self {
					r.owner = owner
					if toHot {
						hot = append(hot, r.h)
					}
				} else {
					keys = append(keys, k)
				}
				routes = append(routes, r)
			}
		}
	}
	least := 2
	if split {
		least = 1
	}
	if len(keys) >= least {
		s.c.Prefetch(keys)
	}
	if len(hot) >= least {
		s.hot.PrefetchHashes(hot)
	}
	clear(keys) // they alias the parser's key buffer; do not pin it
	sc.keys, sc.routes, sc.hotHs = keys[:0], routes, hot[:0]
}

// flush writes sc.out, a finished response batch, to the connection under
// the write deadline, reporting whether the connection is still usable.
func (s *Server) flush(conn net.Conn, sc *connScratch) bool {
	if len(sc.out) == 0 {
		return true
	}
	if s.opts.WriteTimeout > 0 && sc.writeBy.Due(s.opts.WriteTimeout) {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	if _, err := conn.Write(sc.out); err != nil {
		atomic.AddUint64(&s.st.IOErrors, 1)
		return false
	}
	return true
}

// readError classifies a ReadCommand failure, updates counters, and reports
// whether the connection must close. A false return means the error was a
// recoverable client mistake: the caller replies CLIENT_ERROR and continues.
func (s *Server) readError(conn net.Conn, sc *connScratch, err error) (fatal bool) {
	var ce *proto.ClientError
	switch {
	case s.draining():
		// The drain deadline (or any error racing it) ends the
		// connection; everything owed was already flushed.
		return true
	case errors.Is(err, io.EOF):
		return true
	case errors.Is(err, os.ErrDeadlineExceeded):
		// Idle or stalled past ReadTimeout.
		atomic.AddUint64(&s.st.IdleTimeouts, 1)
		return true
	case errors.Is(err, proto.ErrLineTooLong):
		// Framing is unrecoverable; tell the client whose fault it
		// was, then close.
		atomic.AddUint64(&s.st.ClientErrors, 1)
		sc.out = proto.AppendStatusMsg(sc.out[:0], proto.StatusClientError, "line too long")
		s.flush(conn, sc)
		return true
	case errors.As(err, &ce):
		atomic.AddUint64(&s.st.ClientErrors, 1)
		return false
	case errors.Is(err, net.ErrClosed):
		return true
	default:
		atomic.AddUint64(&s.st.IOErrors, 1)
		s.logf("server: read from %v: %v", conn.RemoteAddr(), err)
		return true
	}
}

// clientMsg extracts the CLIENT_ERROR text from a recoverable parse error.
func clientMsg(err error) string {
	var ce *proto.ClientError
	if errors.As(err, &ce) {
		return ce.Msg
	}
	return err.Error()
}

// classify maps a parsed command to the shed policy's (op, penalty subclass,
// tenant SLO class): reads vs writes, and the key's backend miss penalty
// bucketed into the paper's subclasses. A multi-key get takes its most
// expensive key and its most protected tenant — shedding the command sheds
// every key in it, so it is priced at the worst loss. Without a backend
// every key prices at penalty.DefaultUnknown; without a tenant registry
// every key serves at SLO class 0 (no demotion).
func (s *Server) classify(cmd *proto.Command) (overload.Op, int, int) {
	op := overload.OpWrite
	if cmd.Verb.Reads() {
		op = overload.OpRead
	}
	pen := penalty.DefaultUnknown
	if b := s.opts.Backend; b != nil {
		pen = 0
		for _, k := range cmd.Keys {
			if p := b.PenaltyOf(k); p > pen {
				pen = p
			}
		}
	}
	slo := 0
	if r := s.opts.Tenants; r != nil {
		slo = tenant.MaxSLOClass
		for _, k := range cmd.Keys {
			if c := r.SLOOf(k); c < slo {
				slo = c
			}
		}
	}
	return op, penalty.SubclassFor(pen, penalty.SubclassBounds), slo
}

// subclassOf buckets a key's backend miss penalty into its penalty subclass
// (requires Options.Backend).
func (s *Server) subclassOf(key string) int {
	return penalty.SubclassFor(s.opts.Backend.PenaltyOf(key), penalty.SubclassBounds)
}

// sloOf resolves a key's tenant SLO class (0 without a tenant registry).
func (s *Server) sloOf(key string) int {
	if s.opts.Tenants == nil {
		return 0
	}
	return s.opts.Tenants.SLOOf(key)
}

// serve admits one request through the overload controller (when configured)
// and dispatches it, feeding the observed service time back to the limiter.
// A shed request is answered SERVER_ERROR busy (shed) without touching the
// engine.
func (s *Server) serve(sc *connScratch, out []byte, cmd *proto.Command, rt []keyRoute) []byte {
	if len(cmd.Keys) > 0 && membership.IsControlKey(cmd.Keys[0]) {
		// Membership control traffic bypasses admission control and peer
		// routing entirely: view pushes and probes must land precisely
		// when the node is shedding or mid-reroute. The bypass means any
		// client that can reach the data port can speak membership — a
		// stronger capability than cache writes — so the port is assumed
		// to sit on a trusted segment; where it does not, the mutating
		// control keys are gated by a shared secret (Manager.Authorize,
		// -membership-secret). See the membership package's trust model.
		return s.doMembership(out, cmd)
	}
	// Only keyed commands are subject to admission control. Administrative
	// ones (stats, version, flush_all, quit) always pass — an operator must
	// be able to observe a server precisely when it is overloaded.
	if s.ctrl == nil || !cmd.Verb.Keyed() {
		return s.dispatch(sc, out, cmd, rt)
	}
	op, sub, slo := s.classify(cmd)
	ok, _, release := s.ctrl.AcquireSLO(op, sub, slo)
	if !ok {
		atomic.AddUint64(&s.st.Sheds, 1)
		if cmd.NoReply {
			return out
		}
		return proto.AppendShed(out)
	}
	start := time.Now()
	out = s.dispatch(sc, out, cmd, rt)
	release(time.Since(start))
	return out
}

// dispatch serves one parsed command, its keys routed by rt (one route per
// key; nil outside cluster mode). cmd and everything it references obey the
// proto.Parser ownership rules: keys and data alias the connection's read
// buffer, so whatever retains a key beyond this call copies it: the engine when it
// inserts an item, the hot-cache fill before it stores one.
func (s *Server) dispatch(sc *connScratch, out []byte, cmd *proto.Command, rt []keyRoute) []byte {
	v := cmd.Verb
	if rt != nil && v.Keyed() && !v.Reads() && rt[0].owner != "" {
		// Single-owner writes: mutations of a key this node does not own
		// are relayed to the owner, so one authoritative copy exists
		// cluster-wide. (GETs route per key inside doGet — a multi-key get
		// may span owners.)
		return s.deferWrite(sc, out, cmd, rt[0])
	}
	switch {
	case v.Reads():
		return s.doGet(sc, out, cmd, rt)
	case v.Stores():
		return s.doSet(out, cmd)
	case v == proto.VerbIncr || v == proto.VerbDecr:
		return s.doDelta(out, cmd)
	case v == proto.VerbTouch:
		ok := s.c.Touch(cmd.Keys[0], expireAt(cmd.Exptime))
		if cmd.NoReply {
			return out
		}
		if ok {
			return proto.AppendStatus(out, proto.StatusTouched)
		}
		return proto.AppendStatus(out, proto.StatusNotFound)
	case v == proto.VerbDelete:
		ok := s.c.Delete(cmd.Keys[0])
		if cmd.NoReply {
			return out
		}
		if ok {
			return proto.AppendStatus(out, proto.StatusDeleted)
		}
		return proto.AppendStatus(out, proto.StatusNotFound)
	case v == proto.VerbStats:
		return s.doStats(out)
	case v == proto.VerbFlushAll:
		s.c.Flush()
		return proto.AppendStatus(out, proto.StatusOK)
	case v == proto.VerbVersion:
		return proto.AppendStatusMsg(out, proto.StatusVersion, "pamakv/1.0")
	default: // quit: the connection closes once the batch is flushed
		return out
	}
}

// doMembership serves the membership control keys (see internal/membership):
// view pushes and join requests arrive as SETs on reserved keys, the
// current view reads back as a GET. Nodes without a membership manager
// refuse them — a static cluster (or a standalone server) must not store
// control traffic as data.
func (s *Server) doMembership(out []byte, cmd *proto.Command) []byte {
	reply := func(st proto.Status, msg string) []byte {
		switch {
		case cmd.NoReply:
			return out
		case msg == "":
			return proto.AppendStatus(out, st)
		}
		return proto.AppendStatusMsg(out, st, msg)
	}
	m := s.mem
	if m == nil {
		atomic.AddUint64(&s.st.ServerErrors, 1)
		return reply(proto.StatusServerError, "membership not enabled")
	}
	switch {
	case cmd.Verb == proto.VerbSet && cmd.Keys[0] == membership.KeyApply:
		body, err := m.Authorize(cmd.Data)
		var epoch uint64
		var members []string
		if err == nil {
			epoch, members, err = membership.ParseView(body)
		}
		if err == nil {
			err = m.Apply(epoch, members, "peer push")
		}
		if err != nil {
			return reply(proto.StatusServerError, err.Error())
		}
		return reply(proto.StatusStored, "")
	case cmd.Verb == proto.VerbSet && cmd.Keys[0] == membership.KeyJoin:
		body, err := m.Authorize(cmd.Data)
		if err == nil {
			err = m.Join(strings.TrimSpace(string(body)))
		}
		if err != nil {
			return reply(proto.StatusServerError, err.Error())
		}
		return reply(proto.StatusStored, "")
	case cmd.Verb.Reads() && cmd.Keys[0] == membership.KeyView:
		epoch, members := m.View()
		out = proto.AppendValue(out, membership.KeyView, 0, membership.EncodeView(epoch, members))
		return proto.AppendEnd(out)
	default:
		atomic.AddUint64(&s.st.ClientErrors, 1)
		return reply(proto.StatusClientError, "unknown membership control key")
	}
}

// fetchOnce runs one backend fetch attempt under FetchTimeout. All attempts
// go through the backend's per-key singleflight, so concurrent misses of
// one key — across connections and retry chains — collapse onto a single
// backend call. On timeout the fetch goroutine is abandoned (it completes
// and its result is discarded); the backend simulates a database, so there
// is no external resource to cancel.
func (s *Server) fetchOnce(key string) (size int, pen float64, body []byte, owned *[]byte, err error) {
	b := s.opts.Backend
	if s.opts.FetchTimeout <= 0 {
		return b.FetchSharedErr(key, true)
	}
	type result struct {
		size  int
		pen   float64
		body  []byte
		owned *[]byte
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		r.size, r.pen, r.body, r.owned, r.err = b.FetchSharedErr(key, true)
		ch <- r
	}()
	t := time.NewTimer(s.opts.FetchTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.size, r.pen, r.body, r.owned, r.err
	case <-t.C:
		atomic.AddUint64(&s.st.BackendTimeouts, 1)
		return 0, 0, nil, nil, ErrFetchTimeout
	}
}

// fetchBackend runs a bounded retry-with-backoff chain of fetch attempts.
// While the overload tier is shedding, the retry budget halves: retries
// amplify backend load exactly when there is least capacity to spare. A
// non-nil owned is the pooled buffer body lives in, this caller's alone: it
// goes back with bufpool.Put once body has been copied where it is going.
func (s *Server) fetchBackend(key string) (size int, pen float64, body []byte, owned *[]byte, err error) {
	backoff := s.opts.FetchBackoff
	retries := s.opts.FetchRetries
	if s.ctrl.Tier() >= overload.TierShedding {
		retries /= 2
	}
	for attempt := 0; ; attempt++ {
		size, pen, body, owned, err = s.fetchOnce(key)
		if err == nil {
			return size, pen, body, owned, nil
		}
		if attempt >= retries || s.draining() {
			break
		}
		atomic.AddUint64(&s.st.BackendRetries, 1)
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	atomic.AddUint64(&s.st.BackendFailures, 1)
	return 0, 0, nil, nil, err
}

func (s *Server) doGet(sc *connScratch, out []byte, cmd *proto.Command, rt []keyRoute) []byte {
	withCAS := cmd.Verb == proto.VerbGets
	for i, key := range cmd.Keys {
		if rt != nil && rt[i].owner != "" {
			out = s.deferGet(sc, out, key, rt[i], withCAS)
			continue
		}
		// The engine copies the value into the connection's scratch
		// buffer — the one allocation the old path paid per hit, now
		// amortized over the connection's life.
		var val []byte
		var flags uint32
		var cas uint64
		var hit bool
		if withCAS {
			val, flags, cas, hit = s.c.GetWithCAS(key, sc.val[:0])
		} else {
			val, flags, hit = s.c.Get(key, 0, 0, sc.val[:0])
		}
		sc.val = val[:0]
		if !hit && s.opts.Backend != nil {
			tier := s.ctrl.Tier()
			if tier >= overload.TierStrained {
				// Tier 1+: prefer a resident stale copy to paying a
				// backend fetch at all — freshness is the first thing
				// traded away under pressure.
				val, flags, cas, hit = s.staleCopy(sc, key)
			}
			if !hit && tier >= overload.TierShedding && s.ctrl.ShedFetchSLO(s.subclassOf(key), s.sloOf(key)) {
				// Tier 2+: a cheap-penalty miss is not worth a backend
				// fetch while the queue is filling; serve the miss.
				atomic.AddUint64(&s.st.FetchSheds, 1)
				continue
			}
		}
		var fetched *[]byte
		if !hit && s.opts.Backend != nil {
			size, pen, body, owned, ferr := s.fetchBackend(key)
			fetched = owned
			switch {
			case ferr == nil:
				// The fill is an add: a write that landed during the
				// fetch was acknowledged and stays. Either way the
				// reply is the fetched value, with a token only when
				// the fill stored it. key aliases the read buffer; the
				// engine copies it if the fill inserts an item.
				val, flags, hit = body, 0, true
				err := s.c.SetMode(key, cache.ModeAdd, 0, size+len(key)+itemOverhead, pen, 0, 0, body)
				switch {
				case err == nil && withCAS:
					cas = s.c.CASOf(key, 0, body)
				case err != nil && !errors.Is(err, cache.ErrNotStored):
					// e.g. an item larger than any class: served this once.
					atomic.AddUint64(&s.st.ServerErrors, 1)
				}
			default:
				// Backend down: degrade to the engine's retained
				// stale copy, if any.
				val, flags, cas, hit = s.staleCopy(sc, key)
			}
		}
		if hit {
			if need := len(key) + len(val) + valueFraming; cap(out)-len(out) < need {
				out = rehouse(out, max(len(out)+need, 2*cap(out))) // amortized, like append
			}
			if withCAS {
				out = proto.AppendValueCAS(out, key, flags, val, cas)
			} else {
				out = proto.AppendValue(out, key, flags, val)
			}
		}
		if fetched != nil {
			bufpool.Put(fetched) // the engine and the reply hold their own copies
		}
	}
	return proto.AppendEnd(out)
}

// staleCopy reads the engine's stale copy of key, for a GET miss the back
// end will not or could not fill, into the connection's value scratch. A
// stale copy carries CAS 0: a stale value must not win a cas race.
func (s *Server) staleCopy(sc *connScratch, key string) (val []byte, flags uint32, cas uint64, ok bool) {
	val, flags, ok = s.c.GetStale(key, sc.val[:0])
	if ok {
		atomic.AddUint64(&s.st.StaleServes, 1)
		sc.val = val[:0]
	}
	return val, flags, 0, ok
}

func (s *Server) doDelta(out []byte, cmd *proto.Command) []byte {
	next, err := s.c.Delta(cmd.Keys[0], cmd.Delta, cmd.Verb == proto.VerbDecr)
	if cmd.NoReply {
		return out
	}
	switch {
	case errors.Is(err, cache.ErrNotStored):
		return proto.AppendStatus(out, proto.StatusNotFound)
	case errors.Is(err, cache.ErrNotNumeric):
		atomic.AddUint64(&s.st.ClientErrors, 1)
		return proto.AppendStatusMsg(out, proto.StatusClientError, "cannot increment or decrement non-numeric value")
	case err != nil:
		atomic.AddUint64(&s.st.ServerErrors, 1)
		return proto.AppendStatusMsg(out, proto.StatusServerError, err.Error())
	}
	return proto.AppendNumberLine(out, next)
}

// setModes maps each storage verb to the engine's store mode.
var setModes = [...]cache.SetMode{
	proto.VerbSet:     cache.ModeSet,
	proto.VerbAdd:     cache.ModeAdd,
	proto.VerbReplace: cache.ModeReplace,
	proto.VerbAppend:  cache.ModeAppend,
	proto.VerbPrepend: cache.ModePrepend,
	proto.VerbCAS:     cache.ModeCAS,
}

func (s *Server) doSet(out []byte, cmd *proto.Command) []byte {
	// The parsed key and data alias the connection's read buffer; both go to
	// the engine as they are: the callee copies what it keeps. The value
	// lands in a slot of its slab class, the key ahead of it: the item's own
	// slot on an overwrite, else the one an evicted item just gave back
	// (cache/values.go).
	key := cmd.Keys[0]
	pen := penalty.DefaultUnknown
	if s.opts.Backend != nil {
		pen = s.opts.Backend.Penalty(key, len(cmd.Data))
	}
	size := len(key) + len(cmd.Data) + itemOverhead
	err := s.c.SetMode(key, setModes[cmd.Verb], cmd.CasID, size, pen, cmd.Flags, expireAt(cmd.Exptime), cmd.Data)
	if cmd.NoReply {
		return out
	}
	switch {
	case err == nil:
		return proto.AppendStatus(out, proto.StatusStored)
	case errors.Is(err, cache.ErrCASMismatch):
		return proto.AppendStatus(out, proto.StatusExists)
	case errors.Is(err, cache.ErrNotStored) && cmd.Verb == proto.VerbCAS:
		return proto.AppendStatus(out, proto.StatusNotFound)
	case errors.Is(err, cache.ErrNotStored):
		return proto.AppendStatus(out, proto.StatusNotStored)
	default:
		atomic.AddUint64(&s.st.ServerErrors, 1)
		return proto.AppendStatusMsg(out, proto.StatusServerError, err.Error())
	}
}

// expireAt converts Memcached exptime semantics to a unix deadline: 0 means
// never; values up to 30 days are seconds from now on obs.Unix, the clock
// the engines check expiry on; larger values are absolute unix times;
// negative means already expired.
func expireAt(exptime int64) int64 {
	const thirtyDays = 60 * 60 * 24 * 30
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return 1 // epoch+1: expired on arrival
	case exptime <= thirtyDays:
		return obs.Unix() + exptime
	default:
		return exptime
	}
}

// doStats answers the in-band `stats` command: the engine's counters, then
// the server's, each group where its subsystem runs, under the STAT names
// their struct tags give them.
func (s *Server) doStats(out []byte) []byte {
	out = obs.AppendStats(out, s.c.Stats())
	out = proto.AppendStat(out, "curr_items", s.c.Items())
	out = proto.AppendStat(out, "policy", s.c.PolicyName())
	ss := s.Stats()
	out = obs.AppendStats(out, ss.ConnStats)
	out = obs.AppendStats(out, ss.FetchStats)
	if s.ctrl != nil {
		out = obs.AppendStats(out, s.ctrl.Stats())
		out = obs.AppendStats(out, ss.ShedStats)
	}
	if s.peers != nil {
		out = obs.AppendStats(out, ss.PeerStats)
	}
	for cl, n := range s.c.SnapshotSlabs() {
		if n > 0 {
			out = proto.AppendStat(out, fmt.Sprintf("slabs_class_%d", cl), n)
		}
	}
	return proto.AppendEnd(out)
}
