package cache_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/sim"
)

// inClassEvicting wraps a policy with the in-class eviction the baseline
// policies used to make themselves: after MakeRoom, a class still without a
// free slot loses the bottom item of its most populated stack.
type inClassEvicting struct {
	cache.Policy
	c *cache.Cache
}

func (s *inClassEvicting) Attach(c *cache.Cache) {
	s.c = c
	s.Policy.Attach(c)
}

func (s *inClassEvicting) MakeRoom(class, sub int) {
	s.Policy.MakeRoom(class, sub)
	if s.c.FreeSlots(class) > 0 {
		return
	}
	best, bestN := -1, 0
	for si := 0; si < s.c.NumSubclasses(); si++ {
		if n := s.c.SubLen(class, si); n > bestN {
			best, bestN = si, n
		}
	}
	if best >= 0 {
		s.c.EvictBottom(class, best)
	}
}

// OnRemove forwards to a policy that mirrors residents (CAMP).
func (s *inClassEvicting) OnRemove(it *kv.Item) {
	if ro, ok := s.Policy.(cache.RemovalObserver); ok {
		ro.OnRemove(it)
	}
}

// TestEngineFallbackMatchesPolicyEviction runs twin engines of every slab
// policy: one bare, where MakeRoom may leave the in-class eviction to the
// engine's fallback, one wrapped in the shim above, which evicts before the
// fallback can. Every read must answer alike and every counter but
// FallbackEvicts must agree after every operation.
func TestEngineFallbackMatchesPolicyEviction(t *testing.T) {
	sizes := []int{40, 100, 200, 400, 900}
	pens := []float64{0.0005, 0.005, 0.05, 0.5, 2}
	for _, kind := range slabPolicies {
		t.Run(kind, func(t *testing.T) {
			var twins [2]*cache.Cache
			for i := range twins {
				pol, err := sim.PolicySpec{Kind: kind, PSAPeriod: 200}.Build()
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					pol = &inClassEvicting{Policy: pol}
				}
				twins[i], err = cache.New(cache.Config{
					Geometry: opsGeometry, CacheBytes: 12 * 4096, StoreValues: true, WindowLen: 300,
				}, pol)
				if err != nil {
					t.Fatal(err)
				}
			}
			bare, shimmed := twins[0], twins[1]
			rng := rand.New(rand.NewSource(11))
			for op := 0; op < 20_000; op++ {
				id := rng.Intn(1500)
				key := fmt.Sprintf("k%d", id)
				switch r := rng.Intn(10); {
				case r < 5:
					size, pen := sizes[id%len(sizes)], pens[rng.Intn(len(pens))]
					val := bytes.Repeat([]byte{byte(op)}, size-len(key))
					for _, c := range twins {
						c.Set(key, size, pen, uint32(op), val)
					}
				case r < 9:
					v0, f0, h0 := bare.Get(key, sizes[id%len(sizes)], 0.05, nil)
					v1, f1, h1 := shimmed.Get(key, sizes[id%len(sizes)], 0.05, nil)
					if h0 != h1 || f0 != f1 || !bytes.Equal(v0, v1) {
						t.Fatalf("op %d: Get %s = (%d bytes, %d, %v) bare, (%d bytes, %d, %v) shimmed",
							op, key, len(v0), f0, h0, len(v1), f1, h1)
					}
				default:
					for _, c := range twins {
						c.Delete(key)
					}
				}
				s0, s1 := bare.Stats(), shimmed.Stats()
				if s1.FallbackEvicts != 0 {
					t.Fatalf("op %d: the shimmed engine fell back %d times", op, s1.FallbackEvicts)
				}
				s0.FallbackEvicts = 0
				if s0 != s1 {
					t.Fatalf("op %d: stats differ\nbare    %+v\nshimmed %+v", op, s0, s1)
				}
			}
			if err := bare.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d fallback evictions, %d slab migrations", bare.Stats().FallbackEvicts, bare.Stats().SlabMigrations)
		})
	}
}
