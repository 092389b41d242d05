// Package shard holds the engine set: N independent cache engines and the one
// rule that routes a key to its engine. Routing by key hash is the standard
// recipe for scaling a mutex-guarded cache across cores (the moral equivalent
// of running N Memcached instances behind a consistent router): each shard
// gets an equal slice of the memory budget and its own policy instance, so
// allocation decisions stay local to the keys a shard owns — the same
// isolation a multi-instance deployment has. A group can instead be built
// over engines and a route supplied by the caller (package tenant: a range of
// engines per tenant); every keyed operation and every fan-in exists once,
// here.
package shard

import (
	"errors"
	"fmt"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/obs"
)

// PolicyFactory builds one policy instance per shard (policies are stateful
// and cannot be shared between engines).
type PolicyFactory func() cache.Policy

// Group is a set of engines and the one rule that routes a key to its
// engine: by key hash across all of them, or by the route it was built with.
type Group struct {
	shards []*cache.Cache
	mask   uint64
	route  func(key string, h uint64) int // nil: hash across all shards
}

// New builds a group of n shards (rounded up to a power of two, min 1),
// splitting cfg.CacheBytes in whole slabs: every shard gets an equal count
// and the first few one more when the count does not divide, so the group
// holds every slab the budget pays for. Each shard must still hold at least
// one slab. Every shard gets cfg.Stale, the node's one stale table.
func New(cfg cache.Config, n int, factory PolicyFactory) (*Group, error) {
	if factory == nil {
		return nil, errors.New("shard: nil policy factory")
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	if cfg.Geometry.IsZero() {
		cfg.Geometry = kv.DefaultGeometry()
	}
	slabSize := int64(cfg.Geometry.SlabSize)
	slabs := cfg.CacheBytes / slabSize
	g := &Group{mask: uint64(shards - 1)}
	for i := 0; i < shards; i++ {
		scfg := cfg
		scfg.CacheBytes = slabs / int64(shards) * slabSize
		if int64(i) < slabs%int64(shards) {
			scfg.CacheBytes += slabSize
		}
		c, err := cache.New(scfg, factory())
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		g.shards = append(g.shards, c)
	}
	return g, nil
}

// NewRouted groups engines built elsewhere behind route, which returns the
// index in engines of the one serving a key, given the key and its
// kv.HashString hash (tenant.NewGroup: registry prefix, then hash inside the
// tenant's range).
func NewRouted(engines []*cache.Cache, route func(key string, h uint64) int) *Group {
	return &Group{shards: engines, route: route}
}

// Shards returns the shard count.
func (g *Group) Shards() int { return len(g.shards) }

// Engines returns the group's engines in routing order, for what works on
// one engine at a time: the tenant arbiter and its accounting.
func (g *Group) Engines() []*cache.Cache { return g.shards }

// SaveSnapshotFile writes every engine's items into one crash-safe snapshot
// file (cache.WriteSnapshotFile), engine by engine in routing order.
func (g *Group) SaveSnapshotFile(path string) error {
	return cache.WriteSnapshotFile(path, g.shards)
}

// LoadSnapshotFile replays a snapshot file through the group's own route
// (cache.ReadSnapshotFile), so a file saved by any layout — other shard
// counts, tenants or none — restores into this one. In the saving layout
// every engine gets back its own records in their saved order, so LRU order
// is exact; in another, per-stack recency holds approximately, and items
// that no longer fit fall out through ordinary eviction.
func (g *Group) LoadSnapshotFile(path string) (loaded bool, err error) {
	return cache.ReadSnapshotFile(path, g.shards[0].Geometry().MaxItemSize(), g.SetTTL)
}

// shardOf is the group's one key→shard rule: the index of the shard serving
// a key hashed to h (kv.HashString). The hash selector uses the high hash
// bits so it stays independent of the bucket selector inside each shard's
// index (which uses the low bits).
func (g *Group) shardOf(h uint64, key string) int {
	if g.route != nil {
		return g.route(key, h)
	}
	return int((h >> 48) & g.mask)
}

// pick returns the shard serving a key hashed to h. Every keyed method
// hashes its key once and hands the hash to the engine's hash-taking form,
// so the engine does not hash it again.
func (g *Group) pick(h uint64, key string) *cache.Cache { return g.shards[g.shardOf(h, key)] }

// Prefetch loads, ahead of serving them, the memory the keys' operations will
// read (cache.Prefetch). Each key is hashed once, routed by shardOf,
// and every shard gets all of its hashes in one PrefetchHashes call per
// window of keys, so it takes its lock once.
func (g *Group) Prefetch(keys []string) {
	var hs, mine [cache.PrefetchWindow]uint64
	var at [cache.PrefetchWindow]int
	for len(keys) > 0 {
		w := keys[:min(len(keys), len(hs))]
		keys = keys[len(w):]
		for i, k := range w {
			hs[i] = kv.HashString(k)
			at[i] = g.shardOf(hs[i], k)
		}
		var done uint64 // bit i: key i handed to its shard
		for i := range w {
			if done&(1<<i) != 0 {
				continue
			}
			n := 0
			for j := i; j < len(w); j++ {
				if done&(1<<j) == 0 && at[j] == at[i] {
					mine[n] = hs[j]
					n++
					done |= 1 << j
				}
			}
			g.shards[at[i]].PrefetchHashes(mine[:n])
		}
	}
}

// A prefetch window must fit Prefetch's one-word set of keys handed out; this
// fails to compile otherwise.
const _ uint64 = 1 << (cache.PrefetchWindow - 1)

// Get routes to the owning shard.
func (g *Group) Get(key string, sizeHint int, penHint float64, buf []byte) ([]byte, uint32, bool) {
	h := kv.HashString(key)
	val, flags, _, hit := g.pick(h, key).LookupHash(h, key, sizeHint, penHint, buf)
	return val, flags, hit
}

// GetWithCAS routes to the owning shard.
func (g *Group) GetWithCAS(key string, buf []byte) ([]byte, uint32, uint64, bool) {
	h := kv.HashString(key)
	return g.pick(h, key).LookupHash(h, key, 0, 0, buf)
}

// CASOf routes to the owning shard.
func (g *Group) CASOf(key string, flags uint32, value []byte) uint64 {
	h := kv.HashString(key)
	return g.pick(h, key).CASOfHash(h, key, flags, value)
}

// Set routes to the owning shard.
func (g *Group) Set(key string, size int, pen float64, flags uint32, value []byte) error {
	return g.SetMode(key, cache.ModeSet, 0, size, pen, flags, 0, value)
}

// SetTTL routes to the owning shard.
func (g *Group) SetTTL(key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	return g.SetMode(key, cache.ModeSet, 0, size, pen, flags, expireAt, value)
}

// SetMode routes to the owning shard.
func (g *Group) SetMode(key string, mode cache.SetMode, cas uint64, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	h := kv.HashString(key)
	return g.pick(h, key).SetModeHash(h, key, mode, cas, size, pen, flags, expireAt, value)
}

// GetStale routes a degraded read to the owning shard.
func (g *Group) GetStale(key string, buf []byte) ([]byte, uint32, bool) {
	h := kv.HashString(key)
	return g.pick(h, key).GetStaleHash(h, key, buf)
}

// Delete routes to the owning shard.
func (g *Group) Delete(key string) bool {
	h := kv.HashString(key)
	return g.pick(h, key).DeleteHash(h, key)
}

// Touch routes to the owning shard.
func (g *Group) Touch(key string, expireAt int64) bool {
	h := kv.HashString(key)
	return g.pick(h, key).TouchHash(h, key, expireAt)
}

// Delta routes to the owning shard.
func (g *Group) Delta(key string, delta uint64, decr bool) (uint64, error) {
	h := kv.HashString(key)
	return g.pick(h, key).DeltaHash(h, key, delta, decr)
}

// ScanKeys walks live resident items shard by shard (each shard snapshots
// under its own engine lock and runs fn outside it — see cache.ScanKeys).
// fn returning false stops the scan.
func (g *Group) ScanKeys(fn func(key string, pen float64, size int, expireAt int64) bool) {
	stopped := false
	for _, s := range g.shards {
		if stopped {
			return
		}
		s.ScanKeys(func(key string, pen float64, size int, expireAt int64) bool {
			if !fn(key, pen, size, expireAt) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// Flush flushes every shard.
func (g *Group) Flush() {
	for _, s := range g.shards {
		s.Flush()
	}
}

// Items sums resident items across shards.
func (g *Group) Items() int {
	n := 0
	for _, s := range g.shards {
		n += s.Items()
	}
	return n
}

// Stats sums counters across shards.
func (g *Group) Stats() cache.Stats {
	var t cache.Stats
	for _, s := range g.shards {
		obs.Sum(&t, s.Stats())
	}
	return t
}

// Introspect returns the group-wide introspection snapshot: per-shard
// snapshots merged element-wise, so per-class and per-subclass counters
// describe the whole keyspace just as a single engine's would.
func (g *Group) Introspect() cache.Introspection {
	in := g.shards[0].Introspect()
	for _, s := range g.shards[1:] {
		in.Merge(s.Introspect())
	}
	return in
}

// SnapshotSlabs sums per-class slab counts across shards.
func (g *Group) SnapshotSlabs() []int {
	var out []int
	for _, s := range g.shards {
		snap := s.SnapshotSlabs()
		if out == nil {
			out = make([]int, len(snap))
		}
		for i, v := range snap {
			out[i] += v
		}
	}
	return out
}

// PolicyName returns the shards' policy name (identical across shards).
func (g *Group) PolicyName() string { return g.shards[0].PolicyName() }

// StartMaintainers does nothing: engines keep no clock of their own, they
// read the process's one coarse clock (obs.Unix). It and StopMaintainers stay
// only because the benchmark module's in-process stack calls them.
func (g *Group) StartMaintainers(time.Duration) {}

// StopMaintainers does nothing; see StartMaintainers.
func (g *Group) StopMaintainers() {}

// CheckInvariants validates every shard.
func (g *Group) CheckInvariants() error {
	for i, s := range g.shards {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
