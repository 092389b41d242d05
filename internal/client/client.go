// Package client is the first-class Go client for pamakv (and any other
// Memcached-text-protocol server): a typed command/result API, optional
// client-side sharding over the cluster tier's ring, and a tenant key
// prefix.
//
// The package owns no sockets. Every member is reached through one
// cluster.Client — the same transport pama-server nodes use towards each
// other — which dials, pools, deadlines, retries and circuit-breaks;
// this package renders commands, routes them to their owner and turns replies
// into results.
//
// The client speaks the same wire protocol the server's fuzzed parsers
// implement, so anything pama-server accepts is reachable from here: get,
// gets, set, add, replace, append, prepend, cas, delete, incr, decr, touch,
// stats, flush_all, and version.
//
// # Sharding
//
// With one address the client is a plain single-server client. With several
// it builds the ring pama-server nodes build (cluster.NewRing) over the
// member list and routes every key, tenant prefix included, to its owner — so a sharded client sends each key
// straight to the node that would otherwise have to forward it.
//
// # Pipelining
//
// Pipeline batches many operations into one exchange per owning server and
// reads the responses back in order — see Client.Pipeline. The pipelined read
// path is allocation-free in steady state; the alloc gate in allocs_test.go
// pins it.
package client

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"pamakv/internal/bufpool"
	"pamakv/internal/cluster"
	"pamakv/internal/proto"
	"pamakv/internal/tenant"
)

// Sentinel errors. Response-level conditions (miss, not stored, CAS
// conflict) are sentinels so callers can errors.Is them; any other reply is
// a *ReplyError; transport failures surface as the transport's error (a net
// error, or cluster.ErrPeerDown while a member's circuit breaker is open).
var (
	// ErrCacheMiss reports a get/gets on an absent key, or a delete/touch/
	// incr/decr/cas whose key vanished.
	ErrCacheMiss = errors.New("client: cache miss")
	// ErrNotStored reports an add on a present key, a replace on an absent
	// one, or an append/prepend on an absent one.
	ErrNotStored = errors.New("client: item not stored")
	// ErrCASConflict reports a cas whose token lost the race.
	ErrCASConflict = errors.New("client: cas conflict")
	// ErrServerBusy reports a deliberate overload shed (SERVER_ERROR busy
	// (shed)) — the request was refused, not failed; backing off and
	// retrying is appropriate.
	ErrServerBusy = errors.New("client: server busy (shed)")
	// ErrClientClosed reports an operation on a closed client.
	ErrClientClosed = errors.New("client: closed")
	// ErrValueTooLarge reports a value exceeding proto.MaxDataLen, rejected
	// before touching the wire.
	ErrValueTooLarge = errors.New("client: value exceeds protocol maximum")
)

// ReplyError is a reply no sentinel covers: a SERVER_ERROR other than an
// overload shed, a CLIENT_ERROR (the server rejected the request), or a
// status the command cannot produce. The exchange itself succeeded and the
// connection is intact, which is what sets it apart from a transport failure.
type ReplyError struct {
	Status proto.Status
	Msg    string
}

func (e *ReplyError) Error() string {
	switch e.Status {
	case proto.StatusServerError:
		return "client: server error: " + e.Msg
	case proto.StatusClientError:
		return "client: server rejected request: " + e.Msg
	default:
		return fmt.Sprintf("client: unexpected response %v", e.Status)
	}
}

// Config tunes a Client. The zero value of every field selects a sensible
// default; only Addrs is required.
type Config struct {
	// Addrs is the server list. One address means a plain client; several
	// mean client-side sharding over the servers' ring.
	Addrs []string
	// PoolSize caps idle pooled connections per server; <= 0 means
	// cluster.DefaultPoolSize. In-flight connections are unbounded (each
	// concurrent operation holds at most one).
	PoolSize int
	// DialTimeout bounds establishing a connection; <= 0 means
	// cluster.DefaultDialTimeout.
	DialTimeout time.Duration
	// OpTimeout bounds, per attempt, the write of an exchange's requests
	// and then the wait for each reply: one reply of a pipelined batch, not
	// the batch as a whole (the server answers a batch serially, so a long
	// batch of healthy replies must not time out). <= 0 means
	// cluster.DefaultOpTimeout.
	OpTimeout time.Duration
	// Retries is how many extra attempts an exchange — a single operation,
	// or one server's share of a pipeline — gets after a transport failure,
	// each on a fresh connection; 0 means cluster.DefaultRetries, < 0 means
	// none. Only an exchange that received no reply at all is retried (the
	// usual cause is a pooled socket the server idled out), so a write may
	// be applied twice only when its first attempt reached the server and
	// the connection died before any answer — the exposure a lone set has
	// always had, now shared by the writes of a batch. Once a server has
	// answered part of a batch nothing is replayed: the unanswered
	// operations carry the error and the caller decides.
	Retries int
	// Tenant namespaces every key as "tenant/key" before validation and
	// routing, so the client lands in that tenant's partition on a server
	// run with -tenants. Empty means keys pass through untouched (the
	// server's default tenant). Responses carry the fully-qualified key.
	Tenant string
}

// Item is one cache entry as the client sees it. Value is owned by the
// caller (single-key reads copy out of the connection's parse arena).
type Item struct {
	Key   string
	Value []byte
	Flags uint32
	// CAS is the compare-and-swap token; only Gets populates it.
	CAS uint64
}

// Client is an optionally sharded pamakv/Memcached client. It is safe for
// concurrent use by any number of goroutines.
type Client struct {
	cfg Config
	// peers holds one transport per member, in the ring's member order.
	peers []*cluster.Client
	index map[string]int
	// ring routes keys to members; nil for a single-address client.
	ring *cluster.Ring

	closed atomic.Bool
}

// New builds a client for the given servers. No connection is dialed until
// the first operation.
func New(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("client: no server addresses")
	}
	if cfg.Tenant != "" {
		if strings.ContainsRune(cfg.Tenant, tenant.Separator) {
			return nil, errors.New("client: tenant name must not contain '/'")
		}
		if err := proto.CheckKey(cfg.Tenant + string(tenant.Separator) + "k"); err != nil {
			return nil, fmt.Errorf("client: bad tenant name %q: %w", cfg.Tenant, err)
		}
	}
	c := &Client{cfg: cfg}
	members := cfg.Addrs
	if len(cfg.Addrs) > 1 {
		c.ring = cluster.NewRing(cfg.Addrs, 0)
		// The ring normalizes (sorts, dedupes) the member list; peers must
		// index the same view it routes over.
		members = c.ring.Members()
	}
	opts := cluster.ClientOptions{
		PoolSize:    cfg.PoolSize,
		DialTimeout: cfg.DialTimeout,
		OpTimeout:   cfg.OpTimeout,
		Retries:     cfg.Retries,
	}
	c.peers = make([]*cluster.Client, len(members))
	c.index = make(map[string]int, len(members))
	for i, addr := range members {
		c.peers[i] = cluster.NewClient(addr, opts)
		c.index[addr] = i
	}
	return c, nil
}

// Close closes every connection, pooled and in flight, immediately:
// in-flight operations fail with a transport error, subsequent ones with
// ErrClientClosed.
func (c *Client) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for _, p := range c.peers {
		p.Close()
	}
}

// Addrs returns the (normalized) member list the client routes over.
func (c *Client) Addrs() []string {
	addrs := make([]string, len(c.peers))
	for i, p := range c.peers {
		addrs[i] = p.Addr()
	}
	return addrs
}

// qual applies the configured tenant namespace to a key. It runs before
// CheckKey and before routing, so validation and sharding both see the key
// the server will see.
func (c *Client) qual(key string) string {
	if c.cfg.Tenant == "" {
		return key
	}
	return c.cfg.Tenant + string(tenant.Separator) + key
}

// owner returns the index in peers of the member that owns key.
func (c *Client) owner(key string) int {
	if c.ring == nil {
		return 0
	}
	return c.index[c.ring.Owner(key)]
}

// transportErr translates a failed exchange's error into this package's
// vocabulary: a transport closed under the operation is a closed client.
func transportErr(err error) error {
	if errors.Is(err, cluster.ErrClientClosed) {
		return ErrClientClosed
	}
	return err
}

// roundTrip runs one request as a one-reply exchange with p. handle sees the
// reply while it is still valid (its views die when roundTrip returns) and
// gives the operation's verdict.
func roundTrip(p *cluster.Client, req []byte, handle func(*proto.Resp) error) error {
	var verdict error
	x := p.Start(req, 1)
	if err := x.Finish(func(_ int, r *proto.Resp) { verdict = handle(r) }); err != nil {
		return transportErr(err)
	}
	return verdict
}

// do runs one keyed operation against its owner. keep, when non-nil, sees a
// reply that replyErr accepted, for the operations that return data.
func (c *Client) do(o op, keep func(*proto.Resp)) error {
	o.key = c.qual(o.key)
	if err := o.check(); err != nil {
		return err
	}
	req := bufpool.Get(0)
	defer bufpool.Put(req)
	*req = appendOp((*req)[:0], &o)
	return roundTrip(c.peers[c.owner(o.key)], *req, func(r *proto.Resp) error {
		if err := replyErr(o.code, r); err != nil {
			return err
		}
		if keep != nil {
			keep(r)
		}
		return nil
	})
}

// Get retrieves key. A present key returns its Item (Value owned by the
// caller); an absent one returns ErrCacheMiss.
func (c *Client) Get(key string) (Item, error) { return c.get(opGet, key) }

// Gets is Get with the CAS token populated for a later CompareAndSwap.
func (c *Client) Gets(key string) (Item, error) { return c.get(opGets, key) }

func (c *Client) get(code opcode, key string) (Item, error) {
	var it Item
	err := c.do(op{code: code, key: key}, func(r *proto.Resp) {
		v := r.Values[0]
		it = Item{Key: c.qual(key), Value: append([]byte(nil), v.Data...), Flags: v.Flags, CAS: v.CAS}
	})
	return it, err
}

// Set unconditionally stores value under key. exptime follows Memcached
// semantics: 0 never expires, <= 30 days is relative seconds, larger is an
// absolute unix time.
func (c *Client) Set(key string, flags uint32, exptime int64, value []byte) error {
	return c.do(op{code: opSet, key: key, flags: flags, exptime: exptime, value: value}, nil)
}

// Add stores value only if key is absent; ErrNotStored otherwise.
func (c *Client) Add(key string, flags uint32, exptime int64, value []byte) error {
	return c.do(op{code: opAdd, key: key, flags: flags, exptime: exptime, value: value}, nil)
}

// Replace stores value only if key is present; ErrNotStored otherwise.
func (c *Client) Replace(key string, flags uint32, exptime int64, value []byte) error {
	return c.do(op{code: opReplace, key: key, flags: flags, exptime: exptime, value: value}, nil)
}

// Append concatenates value after the present value; ErrNotStored if absent.
func (c *Client) Append(key string, value []byte) error {
	return c.do(op{code: opAppend, key: key, value: value}, nil)
}

// Prepend concatenates value before the present value; ErrNotStored if
// absent.
func (c *Client) Prepend(key string, value []byte) error {
	return c.do(op{code: opPrepend, key: key, value: value}, nil)
}

// CompareAndSwap stores value only if the item's CAS token still equals cas
// (from a prior Gets). ErrCASConflict means a racing writer got there first;
// ErrCacheMiss means the item vanished.
func (c *Client) CompareAndSwap(key string, flags uint32, exptime int64, value []byte, cas uint64) error {
	return c.do(op{code: opCAS, key: key, flags: flags, exptime: exptime, value: value, num: cas}, nil)
}

// Delete removes key; ErrCacheMiss if it was absent.
func (c *Client) Delete(key string) error {
	return c.do(op{code: opDelete, key: key}, nil)
}

// Incr atomically adds delta to the numeric value at key, returning the new
// value; ErrCacheMiss if absent. The value wraps at 2^64.
func (c *Client) Incr(key string, delta uint64) (uint64, error) { return c.delta(opIncr, key, delta) }

// Decr atomically subtracts delta, clamping at zero; ErrCacheMiss if absent.
func (c *Client) Decr(key string, delta uint64) (uint64, error) { return c.delta(opDecr, key, delta) }

func (c *Client) delta(code opcode, key string, delta uint64) (uint64, error) {
	var out uint64
	err := c.do(op{code: code, key: key, num: delta}, func(r *proto.Resp) { out = r.Number })
	return out, err
}

// Touch rearms key's expiry without reading it; ErrCacheMiss if absent.
func (c *Client) Touch(key string, exptime int64) error {
	return c.do(op{code: opTouch, key: key, exptime: exptime}, nil)
}

// admin runs one unkeyed command against member p; keep, when non-nil, sees
// a reply whose status is want.
func admin(p *cluster.Client, cmd string, want proto.Status, keep func(*proto.Resp)) error {
	return roundTrip(p, []byte(cmd), func(r *proto.Resp) error {
		if r.Status != want {
			return respErr(r)
		}
		if keep != nil {
			keep(r)
		}
		return nil
	})
}

// FlushAll invalidates every item on every member. The first failure stops
// the broadcast.
func (c *Client) FlushAll() error {
	for _, p := range c.peers {
		if err := admin(p, "flush_all\r\n", proto.StatusOK, nil); err != nil {
			return err
		}
	}
	return nil
}

// Version returns the first member's version string.
func (c *Client) Version() (string, error) {
	var v string
	err := admin(c.peers[0], "version\r\n", proto.StatusVersion, func(r *proto.Resp) { v = string(r.Msg) })
	return v, err
}

// ServerStats returns each member's stats, keyed by address then stat name.
func (c *Client) ServerStats() (map[string]map[string]string, error) {
	out := make(map[string]map[string]string, len(c.peers))
	for _, p := range c.peers {
		m := make(map[string]string)
		err := admin(p, "stats\r\n", proto.StatusEnd, func(r *proto.Resp) {
			for _, st := range r.Stats {
				m[string(st[0])] = string(st[1])
			}
		})
		if err != nil {
			return nil, err
		}
		out[p.Addr()] = m
	}
	return out, nil
}

// Stats is a point-in-time snapshot of the transport's counters, summed
// across members.
type Stats struct {
	// Dials counts connections established.
	Dials uint64 `json:"dials"`
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	var s Stats
	for _, p := range c.peers {
		s.Dials += p.Stats().Dials
	}
	return s
}
