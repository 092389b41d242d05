package shard

import (
	"fmt"
	"sync"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/policy"
)

func testCfg() cache.Config {
	return cache.Config{
		Geometry:    kv.Geometry{SlabSize: 4096, Base: 64, NumClasses: 4},
		CacheBytes:  16 * 4096,
		StoreValues: true,
		WindowLen:   1000,
	}
}

func pamaFactory() cache.Policy { return core.New(core.DefaultConfig()) }

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	g, err := New(testCfg(), 3, pamaFactory)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", g.Shards())
	}
	g, _ = New(testCfg(), 0, pamaFactory)
	if g.Shards() != 1 {
		t.Fatalf("shards = %d, want 1", g.Shards())
	}
}

// TestNewKeepsEverySlab: a budget that does not divide by the shard count
// is split in whole slabs, none rounded away.
func TestNewKeepsEverySlab(t *testing.T) {
	cfg := testCfg()
	cfg.CacheBytes = 10*4096 + 100
	g, err := New(cfg, 4, pamaFactory)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, e := range g.Engines() {
		got = append(got, e.SlabBudget())
	}
	if fmt.Sprint(got) != "[3 3 2 2]" {
		t.Fatalf("slab budgets %v, want [3 3 2 2]", got)
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(testCfg(), 2, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	cfg := testCfg()
	cfg.CacheBytes = 4096 // one slab split across 4 shards: sub-slab shards
	if _, err := New(cfg, 4, pamaFactory); err == nil {
		t.Fatal("sub-slab shard accepted")
	}
}

func TestRoutingStable(t *testing.T) {
	g, _ := New(testCfg(), 4, pamaFactory)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := g.Set(key, 64, 0.01, uint32(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		_, flags, hit := g.Get(key, 0, 0, nil)
		if !hit || flags != uint32(i) {
			t.Fatalf("key %s lost or corrupted (hit=%v flags=%d)", key, hit, flags)
		}
	}
	if g.Items() != 200 {
		t.Fatalf("Items = %d, want 200", g.Items())
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	g, _ := New(testCfg(), 4, pamaFactory)
	for i := 0; i < 1000; i++ {
		g.Set(fmt.Sprintf("k%d", i), 64, 0.01, 0, nil)
	}
	for i, s := range g.shards {
		if n := s.Items(); n < 100 {
			t.Fatalf("shard %d holds only %d of 1000 keys: routing is skewed", i, n)
		}
	}
}

func TestOpsRouteConsistently(t *testing.T) {
	g, _ := New(testCfg(), 2, pamaFactory)
	g.Set("n", 64, 0.01, 0, []byte("5"))
	if v, err := g.Delta("n", 3, false); err != nil || v != 8 {
		t.Fatalf("Delta: %d %v", v, err)
	}
	_, _, cas, hit := g.GetWithCAS("n", nil)
	if !hit {
		t.Fatal("GetWithCAS miss")
	}
	if err := g.SetMode("n", cache.ModeCAS, cas, 64, 0.01, 0, 0, []byte("9")); err != nil {
		t.Fatal(err)
	}
	if !g.Touch("n", 1<<40) {
		t.Fatal("Touch failed")
	}
	if !g.Delete("n") {
		t.Fatal("Delete failed")
	}
	if _, _, hit := g.Get("n", 0, 0, nil); hit {
		t.Fatal("a deleted key still hits")
	}
}

func TestFlushAndStats(t *testing.T) {
	g, _ := New(testCfg(), 2, func() cache.Policy { return policy.NewStatic() })
	for i := 0; i < 50; i++ {
		g.Set(fmt.Sprintf("k%d", i), 64, 0.01, 0, nil)
	}
	g.Get("k1", 0, 0, nil)
	g.Get("absent", 0, 0, nil)
	st := g.Stats()
	if st.Sets != 50 || st.Gets != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	g.Flush()
	if g.Items() != 0 {
		t.Fatal("flush incomplete")
	}
	snap := g.SnapshotSlabs()
	total := 0
	for _, v := range snap {
		total += v
	}
	if total == 0 {
		t.Fatal("slabs should remain assigned after flush")
	}
	if g.PolicyName() != "memcached" {
		t.Fatalf("policy name %q", g.PolicyName())
	}
}

func TestConcurrentShardedTraffic(t *testing.T) {
	g, _ := New(testCfg(), 4, pamaFactory)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%100)
				switch i % 4 {
				case 0:
					g.Set(key, 1+i%512, 0.01, 0, []byte("x"))
				case 3:
					g.Delete(key)
				default:
					g.Get(key, 0, 0, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
