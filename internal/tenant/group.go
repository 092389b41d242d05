package tenant

import (
	"fmt"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/shard"
)

// NewGroup builds the engines that serve reg's tenants out of one budget
// (cfg.CacheBytes) and groups them behind the tenant route: a key's registry
// prefix picks its tenant's range of engines, its hash the engine inside the
// range. Every engine gets cfg.Stale, the node's one stale table: it is a
// best-effort degradation buffer, not tenant memory. The budget is split in whole slabs: every tenant
// gets its reserve rounded up to slabs (at least one — an engine cannot run
// on zero) plus a weight-proportional part of the rest, spread over shards
// engines (rounded up to a power of two) or, when that would leave an engine
// without a slab, the largest power of two that fits; shard.New keeps every
// slab of the share, so a tenant starts at or above the arbiter's floor. The
// returned members, one per tenant in registry order, are what the arbiter
// and the per-tenant accounting work on.
func NewGroup(reg *Registry, cfg cache.Config, shards int, factory shard.PolicyFactory) (*shard.Group, []Member, error) {
	if cfg.Geometry.IsZero() {
		cfg.Geometry = kv.DefaultGeometry()
	}
	slabSize := int64(cfg.Geometry.SlabSize)
	shares, err := splitBudget(reg, cfg.CacheBytes/slabSize, slabSize)
	if err != nil {
		return nil, nil, err
	}
	type span struct {
		base int
		mask uint64
	}
	spans := make([]span, reg.Len())
	members := make([]Member, reg.Len())
	var engines []*cache.Cache
	for id := range members {
		n := 1
		for n < shards && int64(2*n) <= shares[id] {
			n <<= 1
		}
		tcfg := cfg
		tcfg.CacheBytes = shares[id] * slabSize
		tcfg.Tenant = int32(id)
		g, err := shard.New(tcfg, n, factory)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %s: %w", reg.Config(id).Name, err)
		}
		spans[id] = span{base: len(engines), mask: uint64(n - 1)}
		members[id] = Member{ID: id, Cfg: reg.Config(id), Engines: g.Engines()}
		engines = append(engines, g.Engines()...)
	}
	route := func(key string, h uint64) int {
		sp := spans[reg.Resolve(key)]
		return sp.base + int((h>>48)&sp.mask)
	}
	return shard.NewRouted(engines, route), members, nil
}

// splitBudget divides total slabs across the registry: every tenant's
// reserve (rounded up to slabs, at least one) first, the remainder by weight.
// Rounding residue goes to the last tenant (the auto-appended default) so the
// shares sum exactly to total.
func splitBudget(reg *Registry, total, slabSize int64) ([]int64, error) {
	n := reg.Len()
	shares := make([]int64, n)
	var sumW float64
	var sumFloor int64
	for i := range shares {
		c := reg.Config(i)
		shares[i] = (c.ReservedBytes + slabSize - 1) / slabSize
		if shares[i] < 1 {
			shares[i] = 1
		}
		sumFloor += shares[i]
		sumW += c.Weight
	}
	if sumFloor > total {
		return nil, fmt.Errorf("tenant reserves need %d MiB but the cache has %d MiB",
			(sumFloor*slabSize+(1<<20)-1)>>20, total*slabSize>>20)
	}
	rem := total - sumFloor
	var given int64
	for i := range shares {
		extra := int64(float64(rem) * reg.Config(i).Weight / sumW)
		shares[i] += extra
		given += extra
	}
	shares[n-1] += rem - given
	return shares, nil
}

// CheckIsolation audits that each tenant's engines hold only that tenant's
// items: an engine holding any item is configured with its tenant's id
// (engine-level invariants are the group's CheckInvariants). Like them it is
// for a quiescent point: it walks the engines' indexes without their locks.
func CheckIsolation(members []Member) error {
	for _, m := range members {
		for _, e := range m.Engines {
			if int(e.Tenant()) == m.ID {
				continue
			}
			var stray error
			e.RangeItems(func(it *kv.Item) bool {
				stray = fmt.Errorf("tenant %s: engine holds item %q of tenant %d",
					m.Cfg.Name, it.Key(), e.Tenant())
				return false
			})
			if stray != nil {
				return stray
			}
		}
	}
	return nil
}

// Snapshot is one tenant's accounting for /statsz and the tenant metrics:
// its arbitration state plus what its engines hold and have served.
type Snapshot struct {
	MemberStats
	ReservedBytes int64  `json:"reserved_bytes" prom:"pamakv_tenant_reserved_bytes" help:"Configured memory reserve."`
	FreeSlabs     int    `json:"free_slabs" prom:"pamakv_tenant_free_slabs" help:"Tenant slabs not yet granted to a class."`
	Items         int    `json:"items" prom:"pamakv_tenant_items" help:"Resident items owned by the tenant."`
	UsedBytes     int64  `json:"used_bytes" prom:"pamakv_tenant_used_bytes" help:"Slot bytes occupied by the tenant's items."`
	Gets          uint64 `json:"gets" prom:"pamakv_tenant_gets_total" help:"GETs routed to the tenant."`
	Hits          uint64 `json:"hits" prom:"pamakv_tenant_hits_total" help:"GET hits in the tenant's engines."`
	Misses        uint64 `json:"misses" prom:"pamakv_tenant_misses_total" help:"GET misses in the tenant's engines."`
	Evictions     uint64 `json:"evictions" prom:"pamakv_tenant_evictions_total" help:"Items evicted from the tenant's engines."`
	// SubHits and SubMisses fold the per-class attribution down to
	// penalty subclasses; EvictedPenaltyBySub is the penalty the tenant's
	// evictions cost, per subclass.
	SubHits             []uint64  `json:"subclass_hits,omitempty"`
	SubMisses           []uint64  `json:"subclass_misses,omitempty"`
	EvictedPenaltyBySub []float64 `json:"evicted_penalty_by_sub,omitempty"`
}

// Snapshots returns one accounting row per member the arbiter balances, in
// member order, with the reserve floors and the last step's marginal values.
func (a *Arbiter) Snapshots() []Snapshot {
	arbStats := a.Stats().Members
	out := make([]Snapshot, len(a.members))
	for id, mem := range a.members {
		in := mem.Engines[0].Introspect()
		for _, e := range mem.Engines[1:] {
			in.Merge(e.Introspect())
		}
		snap := Snapshot{
			MemberStats:   arbStats[id],
			ReservedBytes: mem.Cfg.ReservedBytes,
			FreeSlabs:     in.FreeSlabs,
			Items:         in.Items,
			Gets:          in.Stats.Gets,
			Hits:          in.Stats.Hits,
			Misses:        in.Stats.Misses,
			Evictions:     in.Stats.Evictions,

			EvictedPenaltyBySub: in.EvictedPenaltyBySub,
		}
		for cl := 0; cl < in.Classes && cl < len(in.SlotSizes); cl++ {
			snap.UsedBytes += int64(in.UsedSlots[cl]) * int64(in.SlotSizes[cl])
		}
		if in.Subclasses > 0 {
			snap.SubHits = make([]uint64, in.Subclasses)
			snap.SubMisses = make([]uint64, in.Subclasses)
			for cl := 0; cl < in.Classes; cl++ {
				for sb := 0; sb < in.Subclasses; sb++ {
					snap.SubHits[sb] += in.SubHits[cl][sb]
					snap.SubMisses[sb] += in.SubMisses[cl][sb]
				}
			}
		}
		out[id] = snap
	}
	return out
}
