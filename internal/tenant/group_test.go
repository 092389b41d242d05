package tenant

import (
	"fmt"
	"strings"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/shard"
	"pamakv/internal/valuetable"
)

// newTestGroup builds the registry for cfgs (default appended) and its
// engine group out of bytes of memory, shards engines per tenant.
func newTestGroup(t *testing.T, cfgs []Config, bytes int64, shards int) (*Registry, *shard.Group, []Member) {
	t.Helper()
	reg, err := NewRegistry(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	g, members, err := NewGroup(reg, cache.Config{
		CacheBytes:  bytes,
		WindowLen:   5_000,
		StoreValues: true,
	}, shards, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	return reg, g, members
}

// newTestRouter builds {a, b, default} with one 4 MiB engine per tenant.
func newTestRouter(t *testing.T) (*Registry, *shard.Group, []Member) {
	return newTestGroup(t, []Config{
		{Name: "a", SLOClass: 0, ReservedBytes: 1 << 20},
		{Name: "b", SLOClass: 2},
	}, 12<<20, 1)
}

// items sums a member's resident items over its engines.
func items(m Member) int {
	n := 0
	for _, e := range m.Engines {
		n += e.Items()
	}
	return n
}

// TestPrefetchFollowsTheRoute: shard.Group.Prefetch hands each key to the
// engine the keyed methods route it to. Under a tenant route (two tenants and
// the default, two engines each) every engine's prefetch finds exactly the
// keys it holds: a prefetch that routed by hash bits alone would probe the
// first engine for every key.
func TestPrefetchFollowsTheRoute(t *testing.T) {
	_, g, _ := newTestGroup(t, []Config{{Name: "a"}, {Name: "b"}}, 12<<20, 2)
	var keys []string
	for i := 0; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("a/k%d", i), fmt.Sprintf("b/k%d", i), fmt.Sprintf("k%d", i))
	}
	for _, key := range keys {
		if err := g.Set(key, 100, 0.01, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	g.Prefetch(keys)
	for i, e := range g.Engines() {
		if got, want := e.Stats().PrefetchResident, uint64(e.Items()); got != want || want == 0 {
			t.Errorf("engine %d: prefetch found %d resident keys, it holds %d", i, got, want)
		}
	}
}

// TestRouteTable: a key lands in its tenant's range of engines, on the
// engine its hash picks inside the range, for every shape of range.
func TestRouteTable(t *testing.T) {
	two := []Config{{Name: "a"}, {Name: "b"}}
	for _, tc := range []struct {
		name   string
		cfgs   []Config
		bytes  int64
		shards int
		want   []int // engines per tenant, default last
	}{
		{"one shard each", two, 12 << 20, 1, []int{1, 1, 1}},
		{"two shards each", two, 12 << 20, 2, []int{2, 2, 2}},
		{"four shards each", two, 24 << 20, 4, []int{4, 4, 4}},
		{"three rounds up to four", two, 24 << 20, 3, []int{4, 4, 4}},
		// Shares of 6, 1 and 3 slabs: a share that cannot give every shard a
		// slab gets the power of two that fits.
		{"ragged", []Config{{Name: "a", Weight: 6}, {Name: "b"}}, 10 << 20, 4, []int{4, 1, 2}},
		// Shares of 7, 7 and 2 slabs, all of a's and b's reserved: four
		// engines cannot hold 7 slabs evenly, and none may be rounded away.
		{"reserve heavy", []Config{{Name: "a", ReservedBytes: 7 << 20}, {Name: "b", ReservedBytes: 13 << 19}},
			16 << 20, 4, []int{4, 4, 2}},
		{"default only", []Config{{Name: DefaultName}}, 4 << 20, 2, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, g, members := newTestGroup(t, tc.cfgs, tc.bytes, tc.shards)
			if len(members) != len(tc.want) {
				t.Fatalf("%d members, want %d", len(members), len(tc.want))
			}
			total, slabs := 0, 0
			for id, m := range members {
				if len(m.Engines) != tc.want[id] {
					t.Fatalf("tenant %s has %d engines, want %d", m.Cfg.Name, len(m.Engines), tc.want[id])
				}
				total += len(m.Engines)
				// A tenant starts at or above its reserve however its share
				// divides over its engines.
				own := 0
				for _, e := range m.Engines {
					own += e.SlabBudget()
				}
				if reserve := int((m.Cfg.ReservedBytes + 1<<20 - 1) >> 20); own < reserve {
					t.Errorf("tenant %s starts with %d slabs, reserve %d", m.Cfg.Name, own, reserve)
				}
				slabs += own
			}
			if g.Shards() != total {
				t.Fatalf("group has %d engines, members %d", g.Shards(), total)
			}
			if want := int(tc.bytes >> 20); slabs != want {
				t.Errorf("engines hold %d slabs of a %d-slab budget", slabs, want)
			}
			var keys []string
			for i := 0; i < 64; i++ {
				keys = append(keys, fmt.Sprintf("a/k%d", i), fmt.Sprintf("b/k%d", i),
					fmt.Sprintf("k%d", i), fmt.Sprintf("nobody/k%d", i))
			}
			for _, key := range keys {
				if err := g.Set(key, 100, 0.01, 0, []byte("v")); err != nil {
					t.Fatal(err)
				}
				m := members[reg.Resolve(key)]
				idx := int(kv.HashString(key)>>48) & (len(m.Engines) - 1)
				if !m.Engines[idx].Contains(key) {
					t.Fatalf("%s is not on engine %d of tenant %s", key, idx, m.Cfg.Name)
				}
			}
			// Held once: nothing landed on a second engine as well.
			if got := g.Items(); got != len(keys) {
				t.Fatalf("group holds %d items for %d keys", got, len(keys))
			}
			for _, m := range members {
				for i, e := range m.Engines {
					if len(tc.cfgs) == 2 && e.Items() == 0 {
						t.Errorf("engine %d of tenant %s got no key", i, m.Cfg.Name)
					}
				}
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := CheckIsolation(members); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRouterRoutesByPrefix(t *testing.T) {
	reg, r, members := newTestRouter(t)
	set := func(key string) {
		t.Helper()
		if err := r.Set(key, 100, 0.01, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	set("a/k1")
	set("a/k2")
	set("b/k1") // same suffix as a/k1: isolation means no collision
	set("plain")
	set("nobody/k") // unregistered prefix -> default tenant

	ida, _ := reg.Lookup("a")
	idb, _ := reg.Lookup("b")
	def := reg.DefaultID()
	if got := items(members[ida]); got != 2 {
		t.Fatalf("tenant a holds %d items, want 2", got)
	}
	if got := items(members[idb]); got != 1 {
		t.Fatalf("tenant b holds %d items, want 1", got)
	}
	if got := items(members[def]); got != 2 {
		t.Fatalf("default tenant holds %d items, want 2", got)
	}
	if got := r.Items(); got != 5 {
		t.Fatalf("router Items = %d, want 5", got)
	}
	if _, _, hit := r.Get("a/k1", 0, 0, nil); !hit {
		t.Fatal("a/k1 lost after routing")
	}
	if _, _, hit := r.Get("b/k2", 0, 0, nil); hit {
		t.Fatal("b/k2 hit: keys leaked across tenants")
	}
	if !r.Delete("b/k1") || items(members[idb]) != 0 {
		t.Fatal("delete did not route to tenant b")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := CheckIsolation(members); err != nil {
		t.Fatal(err)
	}
}

func TestRouterIsolationAudit(t *testing.T) {
	reg, err := NewRegistry([]Config{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	// Mis-stamp tenant a's engine with the wrong id: every item it stores
	// violates isolation, and the audit must say so.
	wrong := newTestEngine(t, 4<<20, 99)
	okEng := newTestEngine(t, 4<<20, 1)
	members := []Member{
		{ID: 0, Cfg: reg.Config(0), Engines: []*cache.Cache{wrong}},
		{ID: 1, Cfg: reg.Config(1), Engines: []*cache.Cache{okEng}},
	}
	if err := CheckIsolation(members); err != nil {
		t.Fatalf("empty engines should audit clean: %v", err)
	}
	if err := wrong.Set("a/k", 100, 0.01, 0, nil); err != nil {
		t.Fatal(err)
	}
	err = CheckIsolation(members)
	if err == nil || !strings.Contains(err.Error(), "tenant a") {
		t.Fatalf("isolation audit missed mis-stamped item: %v", err)
	}
}

func TestRouterValidation(t *testing.T) {
	reg, err := NewRegistry([]Config{{Name: "a", ReservedBytes: 3 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	factory := func() cache.Policy { return core.New(core.DefaultConfig()) }
	if _, _, err := NewGroup(reg, cache.Config{CacheBytes: 8 << 20}, 1, nil); err == nil {
		t.Fatal("nil policy factory accepted")
	}
	// a's reserve plus the default tenant's one slab exceed the budget.
	if _, _, err := NewGroup(reg, cache.Config{CacheBytes: 3 << 20}, 1, factory); err == nil ||
		!strings.Contains(err.Error(), "reserves") {
		t.Fatalf("reserves beyond the budget accepted: %v", err)
	}
	if _, _, err := NewGroup(reg, cache.Config{CacheBytes: 4 << 20}, 1, factory); err != nil {
		t.Fatalf("reserves that exactly fit refused: %v", err)
	}
}

func TestTenantSnapshots(t *testing.T) {
	_, r, members := newTestRouter(t)
	for _, key := range []string{"a/k1", "a/k2", "b/k1"} {
		if err := r.Set(key, 200, 0.05, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.Get("a/k1", 0, 0, nil)
	r.Get("a/miss", 0, 0.05, nil)

	arb, err := NewArbiter(members)
	if err != nil {
		t.Fatal(err)
	}
	arb.Step()

	snaps := arb.Snapshots()
	if len(snaps) != len(members) {
		t.Fatalf("%d snapshots for %d tenants", len(snaps), len(members))
	}
	byName := map[string]Snapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	a := byName["a"]
	if a.Items != 2 || a.Gets != 2 || a.Hits != 1 || a.Misses != 1 {
		t.Fatalf("tenant a snapshot off: %+v", a)
	}
	if a.UsedBytes <= 0 || a.Slabs <= 0 {
		t.Fatalf("tenant a accounting empty: %+v", a)
	}
	if a.SLOClass != 0 || a.ReservedBytes != 1<<20 || a.ReserveSlabs != 1 {
		t.Fatalf("tenant a contract fields off: %+v", a)
	}
	if len(a.EvictedPenaltyBySub) == 0 {
		t.Fatalf("tenant a has no evicted-penalty row: %+v", a)
	}
	if b := byName["b"]; b.Items != 1 || b.SLOClass != 2 {
		t.Fatalf("tenant b snapshot off: %+v", b)
	}
	if _, ok := byName[DefaultName]; !ok {
		t.Fatal("default tenant missing from snapshots")
	}
	if st := arb.Stats(); st.Steps != 1 {
		t.Fatalf("arbiter stats: %+v", st)
	}
}

// TestOneStaleTablePerNode: engines built as pama-server builds them — eight
// hash shards, or two tenants over eight shards each — share one 1 MiB stale
// table, so a 200 KiB value that expires or is evicted is served stale
// whichever engine held it. The group's introspection reports that table's
// occupancy and evictions once, not once per engine.
func TestOneStaleTablePerNode(t *testing.T) {
	factory := func() cache.Policy { return core.New(core.DefaultConfig()) }
	reg, err := NewRegistry([]Config{{Name: "a", ReservedBytes: 4 << 20}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		prefix string
		build  func(cache.Config) (*shard.Group, error)
	}{
		{"8 shards", "", func(cfg cache.Config) (*shard.Group, error) { return shard.New(cfg, 8, factory) }},
		{"2 tenants", "a/", func(cfg cache.Config) (*shard.Group, error) {
			g, _, err := NewGroup(reg, cfg, 8, factory)
			return g, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stale := valuetable.New(1<<20, 0)
			g, err := tc.build(cache.Config{
				CacheBytes: 16 << 20, StoreValues: true, WindowLen: 100_000,
				Stale: stale,
			})
			if err != nil {
				t.Fatal(err)
			}
			big := []byte(strings.Repeat("v", 200<<10))
			resident := func(key string) bool {
				for _, e := range g.Engines() {
					if e.Contains(key) {
						return true
					}
				}
				return false
			}
			served := func(key, how string) {
				t.Helper()
				if v, _, ok := g.GetStale(key, nil); !ok || len(v) != len(big) {
					t.Fatalf("%s %s: GetStale = %d bytes, %v; want the %d-byte value", how, key, len(v), ok, len(big))
				}
			}

			expired := tc.prefix + "expired"
			if err := g.SetTTL(expired, len(big), 0.01, 0, 1, big); err != nil {
				t.Fatal(err)
			}
			if _, _, hit := g.Get(expired, 0, 0, nil); hit {
				t.Fatal("expired value served fresh")
			}
			served(expired, "expired")

			evicted := tc.prefix + "evicted"
			if err := g.Set(evicted, len(big), 0.01, 0, big); err != nil {
				t.Fatal(err)
			}
			for i := 0; resident(evicted); i++ {
				if i == 1000 {
					t.Fatal("1000 stores of its size never evicted the value")
				}
				if err := g.Set(fmt.Sprintf("%sfill%d", tc.prefix, i), len(big), 0.01, 0, big); err != nil {
					t.Fatal(err)
				}
			}
			served(evicted, "evicted")
			in, st := g.Introspect(), stale.Stats()
			if in.StaleBytes != st.Bytes || in.StaleItems != st.Items || in.StaleEvicts != st.Evicts || st.Items < 2 {
				t.Fatalf("introspection reports %d bytes, %d items, %d evictions; the table holds %d, %d (want both values) and evicted %d",
					in.StaleBytes, in.StaleItems, in.StaleEvicts, st.Bytes, st.Items, st.Evicts)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
