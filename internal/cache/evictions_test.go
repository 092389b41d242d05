package cache_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/sim"
)

// evictRecounting wraps a policy and recounts, per penalty subclass, the
// evictions the engine reports through OnEvict and the penalty they cost.
type evictRecounting struct {
	cache.Policy
	evicts  []uint64
	penalty []float64
}

func (r *evictRecounting) Attach(c *cache.Cache) {
	r.evicts = make([]uint64, c.NumSubclasses())
	r.penalty = make([]float64, c.NumSubclasses())
	r.Policy.Attach(c)
}

func (r *evictRecounting) OnEvict(it *kv.Item) {
	r.evicts[it.Sub]++
	r.penalty[it.Sub] += it.Penalty
	r.Policy.OnEvict(it)
}

// OnRemove forwards to a policy that mirrors residents (CAMP).
func (r *evictRecounting) OnRemove(it *kv.Item) {
	if ro, ok := r.Policy.(cache.RemovalObserver); ok {
		ro.OnRemove(it)
	}
}

// TestEngineCountsEvictionsForEveryPolicy: whatever policy chooses the
// victims, the engine's per-subclass eviction counts and evicted penalty
// equal a recount of OnEvict after every operation, and sum to
// Stats.Evictions.
func TestEngineCountsEvictionsForEveryPolicy(t *testing.T) {
	sizes := []int{40, 100, 200, 400, 900}
	pens := []float64{0.0005, 0.005, 0.05, 0.5, 2}
	for _, kind := range slabPolicies {
		t.Run(kind, func(t *testing.T) {
			pol, err := sim.PolicySpec{Kind: kind, PSAPeriod: 200}.Build()
			if err != nil {
				t.Fatal(err)
			}
			rec := &evictRecounting{Policy: pol}
			c, err := cache.New(cache.Config{
				Geometry: opsGeometry, CacheBytes: 12 * 4096, StoreValues: true, WindowLen: 300,
			}, rec)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			for op := 0; op < 10_000; op++ {
				id := rng.Intn(1500)
				key := fmt.Sprintf("k%d", id)
				switch r := rng.Intn(10); {
				case r < 5:
					size, pen := sizes[id%len(sizes)], pens[rng.Intn(len(pens))]
					c.Set(key, size, pen, 0, bytes.Repeat([]byte{'v'}, size-len(key)))
				case r < 9:
					c.Get(key, sizes[id%len(sizes)], 0.05, nil)
				default:
					c.Delete(key)
				}
				in := c.Introspect()
				if !slices.Equal(in.EvictsBySub, rec.evicts) || !slices.Equal(in.EvictedPenaltyBySub, rec.penalty) {
					t.Fatalf("op %d: engine counts %v (penalty %v), OnEvict saw %v (penalty %v)",
						op, in.EvictsBySub, in.EvictedPenaltyBySub, rec.evicts, rec.penalty)
				}
				if op%1000 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if c.Stats().Evictions == 0 {
				t.Fatal("the run evicted nothing")
			}
		})
	}
}
