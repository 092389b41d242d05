// Package cluster turns a set of pama-server processes into one cache tier.
//
// Ownership: every key has exactly one owning node, chosen by a
// consistent-hash Ring over the member list. The owner is the only node that
// fills the key from the backend; every other node forwards to the owner, so
// one logical cache line exists per key cluster-wide (plus short-lived copies
// in non-owner hot caches). This is the distributed analogue of the paper's
// penalty pricing: a forwarded peer read costs ~100µs, a backend recompute
// costs 1ms–5s, so the tier inserts a cheap level between "local RAM" and
// "recompute".
//
// The ring places DefaultVNodes virtual nodes per member. A membership change
// moves only the keys whose arc changed hands (~K/N of them), which is what
// keeps a node kill from flushing the whole tier. The ring is a
// deterministic function of the member list, so every node (and a sharding
// client) computes identical ownership without coordination. It hashes the
// whole key, tenant prefix included: tenants route inside the owner.
package cluster

import (
	"math/bits"
	"sort"
	"strconv"

	"pamakv/internal/kv"
)

// DefaultVNodes is the virtual-node count per member used when a Ring is
// built with vnodes <= 0. 128 keeps the keys-per-node imbalance under ~10%
// for small clusters (see TestRingBalance) while the ring stays a few KiB.
const DefaultVNodes = 128

// normalize sorts and dedupes a member list, dropping empty entries.
func normalize(members []string) []string {
	out := make([]string, 0, len(members))
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m == "" {
			continue
		}
		if _, ok := seen[m]; ok {
			continue
		}
		seen[m] = struct{}{}
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// point is one virtual node on the ring: a hash position and the member it
// maps to.
type point struct {
	hash uint64
	node int32
}

// Ring is a consistent-hash ring with virtual nodes. It is immutable and
// safe for concurrent use; a membership change builds a new Ring.
type Ring struct {
	members []string
	points  []point // sorted by hash
	// first is the successor table: bucket b covers the hashes whose top
	// bits are b, and first[b] is the index of the first point at or after
	// the bucket's start (len(points) past the last point).
	first []uint32
	shift uint // 64 - log2(len(first))
}

// bucketsPerPoint sizes the successor table: at 4 buckets per point a
// successor search is one load and a forward scan that rarely takes a
// step, for 4 bytes a bucket.
const bucketsPerPoint = 4

// NewRing builds a ring over members with vnodes virtual nodes each
// (DefaultVNodes when vnodes <= 0). The construction is deterministic:
// equal member lists produce identical rings on every node.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ms := normalize(members)
	r := &Ring{members: ms, points: make([]point, 0, len(ms)*vnodes)}
	for i, m := range ms {
		// Each vnode hashes "member#k"; the strong mixer in HashString
		// spreads the positions even though the inputs share a prefix.
		for k := 0; k < vnodes; k++ {
			h := kv.HashString(m + "#" + strconv.Itoa(k))
			r.points = append(r.points, point{hash: h, node: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by member index so the ring
		// is still a pure function of the member list.
		return r.points[a].node < r.points[b].node
	})
	if len(r.points) > 0 {
		lg := uint(bits.Len(uint(len(r.points)*bucketsPerPoint - 1)))
		r.shift = 64 - lg
		r.first = make([]uint32, 1<<lg)
		i := 0
		for b := range r.first {
			start := uint64(b) << r.shift
			for i < len(r.points) && r.points[i].hash < start {
				i++
			}
			r.first[b] = uint32(i)
		}
	}
	return r
}

// successor returns the index of the first point at or after h, wrapping to
// 0 past the last point. Every point before first[h's bucket] lies below
// the bucket's start, hence below h; the scan stops at the bucket's end at
// the latest.
func (r *Ring) successor(h uint64) int {
	i := int(r.first[h>>r.shift])
	for i < len(r.points) && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return i
}

// ringProbes is the probe count of multi-probe consistent hashing: each key
// hashes to several candidate positions and the one closest to its clockwise
// successor wins. Min-of-k distance sampling discounts members that happen
// to own long arcs, cutting the keys-per-node imbalance from ~1/sqrt(vnodes)
// (>10% at 128 vnodes) to well under 10% — without growing the ring.
const ringProbes = 8

// Owner returns the member owning key: among ringProbes probe positions
// derived from the key's hash, the vnode with the smallest clockwise
// distance to its probe wins. Removing a member deletes only its vnodes, so
// a key moves only if its winning vnode belonged to the removed member —
// distances to surviving vnodes only shrink or stay equal (minimal
// disruption, checked by TestRingMinimalDisruption).
func (r *Ring) Owner(key string) string { return r.OwnerHash(kv.HashString(key)) }

// OwnerHash is Owner for a key already hashed with kv.HashString: a server
// routing a pipelined chunk hashes each key once and resolves its owner from
// the hash.
func (r *Ring) OwnerHash(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	var best int32
	bestDist := ^uint64(0)
	for p := 0; p < ringProbes; p++ {
		// Splitmix64 probe sequence: deterministic per key.
		ph := kv.Mix64(h + uint64(p)*0x9e3779b97f4a7c15)
		i := r.successor(ph)
		// Clockwise distance; uint64 wraparound handles the wrapped case.
		if d := r.points[i].hash - ph; d < bestDist {
			bestDist, best = d, r.points[i].node
		}
	}
	return r.members[best]
}

// Members returns the ring's member list.
func (r *Ring) Members() []string { return r.members }
