package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's own address as it appears in Members.
	Self string
	// Members is the full member list, Self included.
	Members []string
	// Hash names the owner function. The ring is the only one: "" and
	// "ring" select it, and New refuses anything else.
	Hash string
	// VNodes is ignored.
	//
	// Deprecated: the ring has no virtual nodes (see NewRing).
	VNodes int
	// Client tunes the per-peer connection pools.
	Client ClientOptions
	// Tier returns the local node's overload pressure tier (overload.Tier*);
	// nil means always normal. From TierStrained up every peer client
	// halves its retry budget, so an overloaded node does not amplify its
	// load onto the cluster.
	Tier func() int
	// Hedge is ignored: peer reads are never hedged.
	//
	// Deprecated: the field outlives hedged reads only because the
	// benchmark module still sets it.
	Hedge HedgePolicy
}

// Peers is one node's routing table: the ring plus a pooled client per
// remote member. Safe for concurrent use; SetMembers may be called while
// requests are in flight.
type Peers struct {
	self string
	cfg  Config

	// ring is read without a lock on every key; SetMembers swaps it.
	ring atomic.Pointer[Ring]

	mu      sync.RWMutex // guards clients
	clients map[string]*Client
}

// New validates cfg and builds the routing table. Self must appear in
// Members; clients for the remote members are created lazily-dialed (no
// connection until first use).
func New(cfg Config) (*Peers, error) {
	members := NormalizeMembers(cfg.Members)
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	found := false
	for _, m := range members {
		if m == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in members %v", cfg.Self, members)
	}
	if cfg.Hash != "" && cfg.Hash != "ring" {
		return nil, fmt.Errorf("cluster: unknown owner function %q (the ring is the only one)", cfg.Hash)
	}
	p := &Peers{
		self:    cfg.Self,
		cfg:     cfg,
		clients: make(map[string]*Client, len(members)),
	}
	p.ring.Store(NewRing(members, 0))
	for _, m := range members {
		if m != cfg.Self {
			p.clients[m] = p.newClient(m)
		}
	}
	return p, nil
}

// Self returns this node's address.
func (p *Peers) Self() string { return p.self }

// Owner returns the member owning key under the current membership.
func (p *Peers) Owner(key string) string { return p.ring.Load().Owner(key) }

// Ring returns the current membership's ring. A caller routing many keys
// loads it once, so they all route against one view.
func (p *Peers) Ring() *Ring { return p.ring.Load() }

// ClientFor returns the pooled client for a remote member, or nil for self
// and unknown members.
func (p *Peers) ClientFor(addr string) *Client {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.clients[addr]
}

// Members returns the current member list.
func (p *Peers) Members() []string { return p.ring.Load().Members() }

// newClient builds the pooled client for a remote member; its retry budget
// follows the local tier (Config.Tier).
func (p *Peers) newClient(addr string) *Client {
	c := NewClient(addr, p.cfg.Client)
	c.tier = p.cfg.Tier
	return c
}

// SetMembers rebuilds the routing table for a new member list. The
// ring is swapped atomically: keys whose arc changed hands route to
// their new owner on the next request. Clients of departed members are
// closed promptly (pooled and in-flight connections torn down, breaker
// state discarded); surviving clients keep their pools; a re-added member
// gets a fresh client with a closed (allowing) breaker.
//
// Self may be absent from the new list: the node then enters proxy mode —
// it owns no keys and forwards every request to the remaining members.
// This is what a draining node runs while it streams its residents out
// (see internal/membership). An empty list is refused: a node with no
// members at all could not route anything.
func (p *Peers) SetMembers(members []string) error {
	ms := NormalizeMembers(members)
	if len(ms) == 0 {
		return fmt.Errorf("cluster: empty member list")
	}
	ring := NewRing(ms, 0)
	keep := make(map[string]struct{}, len(ms))
	for _, m := range ms {
		keep[m] = struct{}{}
	}
	p.mu.Lock()
	var closing []*Client
	for addr, c := range p.clients {
		if _, ok := keep[addr]; !ok {
			closing = append(closing, c)
			delete(p.clients, addr)
		}
	}
	for _, m := range ms {
		if m != p.self {
			if _, ok := p.clients[m]; !ok {
				p.clients[m] = p.newClient(m)
			}
		}
	}
	// Published after the clients map has every new member, so a request
	// routed by the new ring finds its owner's client; under p.mu, so
	// concurrent calls leave ring and clients from the same list.
	p.ring.Store(ring)
	p.mu.Unlock()
	for _, c := range closing {
		c.Close()
	}
	return nil
}

// Snapshots returns per-peer counter snapshots keyed by peer address.
func (p *Peers) Snapshots() map[string]ClientStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]ClientStats, len(p.clients))
	for addr, c := range p.clients {
		out[addr] = c.Stats()
	}
	return out
}

// Close closes every peer client.
func (p *Peers) Close() {
	p.mu.Lock()
	clients := make([]*Client, 0, len(p.clients))
	for _, c := range p.clients {
		clients = append(clients, c)
	}
	p.clients = make(map[string]*Client)
	p.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}
