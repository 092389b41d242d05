// Package cluster turns a set of pama-server processes into one cache tier.
//
// Ownership: every key has exactly one owning node, chosen by a Ring over
// the member list. The owner is the only node that fills the key from the
// backend; every other node forwards to the owner, so one logical cache line
// exists per key cluster-wide (plus short-lived copies in non-owner hot
// caches). This is the distributed analogue of the paper's penalty pricing:
// a forwarded peer read costs ~100µs, a backend recompute costs 1ms–5s, so
// the tier inserts a cheap level between "local RAM" and "recompute".
//
// The ring cuts the hash space into a fixed number of slots and gives each
// slot to a member by rendezvous hashing. A membership change moves only the
// slots the removed member held or the added one wins (~K/N keys), which is
// what keeps a node kill from flushing the whole tier. The ring is a
// deterministic function of the member set, so every node (and a sharding
// client) computes identical ownership without coordination. It hashes the
// whole key, tenant prefix included: tenants route inside the owner.
package cluster

import (
	"sort"
	"strings"

	"pamakv/internal/kv"
)

// DefaultVNodes was the virtual-node count per member of the ring's earlier
// form.
//
// Deprecated: the ring has no virtual nodes; NewRing ignores its vnodes
// argument.
const DefaultVNodes = 128

// NormalizeMembers trims, sorts and dedupes a member list, dropping empty
// entries: the one form every node's view and ring is built from, so views
// compare stably.
func NormalizeMembers(members []string) []string {
	out := make([]string, 0, len(members))
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m = strings.TrimSpace(m); m == "" {
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

// slotBits sizes the slot table: 2^14 slots keep the keys-per-member
// imbalance within a few percent at up to 8 members (TestRingBalance) in a
// 32 KiB table.
const slotBits = 14

// Ring maps a key's hash to its owning member through a fixed table of
// hash slots. It is immutable and safe for concurrent use; a membership
// change builds a new Ring.
type Ring struct {
	members []string
	// slots[s] indexes members: the owner of every hash whose top slotBits
	// bits are s. Nil for an empty ring.
	slots *[1 << slotBits]uint16
}

// slotWeight is member hash hm's rendezvous weight for slot s: the s-th
// output of a splitmix64 stream seeded by hm.
func slotWeight(hm uint64, s int) uint64 { return kv.Mix64(hm + uint64(s)*0x9e3779b97f4a7c15) }

// NewRing builds the ring over members. Each slot goes to the member of
// highest slotWeight (rendezvous hashing), so the table is a pure function
// of the member set: removing a member moves only the slots it held, adding
// one moves only the slots it wins. vnodes is ignored; it remains for
// callers of the ring's earlier form.
func NewRing(members []string, vnodes int) *Ring {
	ms := NormalizeMembers(members)
	r := &Ring{members: ms}
	if len(ms) == 0 {
		return r
	}
	hm := make([]uint64, len(ms))
	for i, m := range ms {
		hm[i] = kv.HashString(m)
	}
	r.slots = new([1 << slotBits]uint16)
	for s := range r.slots {
		// A weight tie (vanishingly rare) goes to the first member in
		// sorted order, so the table still depends on the set alone.
		best, bestW := 0, slotWeight(hm[0], s)
		for i := 1; i < len(hm); i++ {
			if w := slotWeight(hm[i], s); w > bestW {
				best, bestW = i, w
			}
		}
		r.slots[s] = uint16(best)
	}
	return r
}

// Owner returns the member owning key.
func (r *Ring) Owner(key string) string { return r.OwnerHash(kv.HashString(key)) }

// OwnerHash is Owner for a key already hashed with kv.HashString: a server
// routing a pipelined chunk hashes each key once and resolves its owner from
// the hash with one table load.
func (r *Ring) OwnerHash(h uint64) string {
	if r.slots == nil {
		return ""
	}
	return r.members[r.slots[h>>(64-slotBits)]]
}

// Members returns the ring's member list.
func (r *Ring) Members() []string { return r.members }
