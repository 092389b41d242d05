package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pamakv/internal/cache"
)

// refFindVictim is the donor search as it stood before the four tiers: the
// cheapest single-subclass candidate among donor classes owning more than
// minSlabs slabs (the requesting class always eligible), bestC < 0 when
// there is none.
func refFindVictim(p *PAMA, class, minSlabs int) (bestC, bestS int, bestVal float64) {
	c := p.c
	bestC, bestS, bestVal = -1, -1, math.Inf(1)
	for d := 0; d < c.NumClasses(); d++ {
		if c.Slabs(d) == 0 || (d != class && c.Slabs(d) <= minSlabs) {
			continue
		}
		need := c.SlotsPerSlab(d) - c.FreeSlots(d)
		if need <= 0 {
			if bestVal > 0 || bestC < 0 {
				bestC, bestS, bestVal = d, p.largestSub(d), 0
			}
			continue
		}
		for s := 0; s < c.NumSubclasses(); s++ {
			if c.SubLen(d, s) < need {
				continue
			}
			if v := p.OutgoingValue(d, s); v < bestVal {
				bestC, bestS, bestVal = d, s, v
			}
		}
	}
	return bestC, bestS, bestVal
}

// refMakeRoomVictim is the old MakeRoom's two-call sequence.
func refMakeRoomVictim(p *PAMA, class int) (int, int, float64) {
	bestC, bestS, bestVal := refFindVictim(p, class, 1)
	if bestC < 0 {
		bestC, bestS, bestVal = refFindVictim(p, class, 0)
	}
	return bestC, bestS, bestVal
}

// refCheapestOutgoing is the old CheapestOutgoing: the two-call sequence,
// then its private whole-class pass over every class owning a slab.
func refCheapestOutgoing(p *PAMA) (class, sub int, v float64, ok bool) {
	bestC, bestS, bestVal := refMakeRoomVictim(p, -1)
	if bestC < 0 {
		c := p.c
		bestVal = math.Inf(1)
		for d := 0; d < c.NumClasses(); d++ {
			if c.Slabs(d) == 0 {
				continue
			}
			var sum float64
			for s := 0; s < c.NumSubclasses(); s++ {
				sum += p.OutgoingValue(d, s)
			}
			if sum < bestVal {
				bestC, bestS, bestVal = d, p.largestSub(d), sum
			}
		}
	}
	if bestC < 0 {
		return 0, 0, 0, false
	}
	return bestC, max(bestS, 0), bestVal, true
}

// checkVictim holds findVictim(class) against the reference on the engine's
// current state: the same answer whenever the reference found a
// single-subclass donor; otherwise the cheapest whole class among the donors
// that keep a slab, or among all donors when none does.
func checkVictim(p *PAMA, class int) error {
	c := p.c
	gotC, gotS, gotV := p.findVictim(class)
	refC, refS, refV := refMakeRoomVictim(p, class)
	if refC >= 0 {
		if gotC != refC || gotS != refS || gotV != refV {
			return fmt.Errorf("class %d: findVictim = (%d, %d, %v), reference (%d, %d, %v)",
				class, gotC, gotS, gotV, refC, refS, refV)
		}
		return nil
	}
	keeps := func(d int) bool { return c.Slabs(d) > 0 && (d == class || c.Slabs(d) >= 2) }
	anyKeeps, anyOwns := false, false
	for d := 0; d < c.NumClasses(); d++ {
		anyKeeps = anyKeeps || keeps(d)
		anyOwns = anyOwns || c.Slabs(d) > 0
	}
	if !anyOwns {
		if gotC >= 0 {
			return fmt.Errorf("class %d: findVictim = class %d, but no class owns a slab", class, gotC)
		}
		return nil
	}
	eligible := func(d int) bool { return c.Slabs(d) > 0 && (keeps(d) || !anyKeeps) }
	if gotC < 0 || !eligible(gotC) {
		return fmt.Errorf("class %d: findVictim = class %d, not an eligible whole-class donor (keeping a slab: %v)",
			class, gotC, anyKeeps)
	}
	sum := func(d int) (v float64) {
		for s := 0; s < c.NumSubclasses(); s++ {
			v += p.OutgoingValue(d, s)
		}
		return v
	}
	if gotS != p.largestSub(gotC) || gotV != sum(gotC) {
		return fmt.Errorf("class %d: findVictim = (%d, %d, %v), want largest stack %d priced %v",
			class, gotC, gotS, gotV, p.largestSub(gotC), sum(gotC))
	}
	for d := 0; d < c.NumClasses(); d++ {
		if eligible(d) && sum(d) < gotV {
			return fmt.Errorf("class %d: findVictim priced class %d at %v, class %d is cheaper at %v",
				class, gotC, gotV, d, sum(d))
		}
	}
	return nil
}

// TestFindVictimMatchesReference drives seeded store streams through PAMA
// engines of 1–16 slabs, with one and with five penalty subclasses, and
// after every store holds the donor search for every requesting class, and
// for the tenant arbiter's price, against the reference search above.
func TestFindVictimMatchesReference(t *testing.T) {
	pens := []float64{0.0005, 0.005, 0.05, 0.5, 2}
	wholeClass := 0
	for _, cfg := range []Config{PrePAMAConfig(), DefaultConfig()} {
		for slabs := 1; slabs <= 16; slabs++ {
			p := New(cfg)
			c, err := cache.New(cache.Config{Geometry: smallGeom(), CacheBytes: int64(slabs) * 4096, WindowLen: 97}, p)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%d-slabs", p.Name(), slabs)
			rng := rand.New(rand.NewSource(int64(slabs)))
			for op := 0; op < 2000; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(400))
				if rng.Intn(4) == 0 {
					c.Get(key, 0, 0, nil)
					continue
				}
				if err := c.Set(key, 1+rng.Intn(512), pens[rng.Intn(len(pens))], 0, nil); err != nil {
					t.Fatalf("%s op %d: %v", name, op, err)
				}
				for class := -1; class < c.NumClasses(); class++ {
					if err := checkVictim(p, class); err != nil {
						t.Fatalf("%s op %d: %v", name, op, err)
					}
				}
				if rc, _, _ := refMakeRoomVictim(p, -1); rc < 0 {
					wholeClass++
				}
				gc, gs, gv, gok := p.CheapestOutgoing()
				if vc, vs, vv := p.findVictim(-1); gc != vc || gs != vs || gv != vv || gok != (vc >= 0) {
					t.Fatalf("%s op %d: CheapestOutgoing = (%d, %d, %v, %v), findVictim(-1) = (%d, %d, %v)",
						name, op, gc, gs, gv, gok, vc, vs, vv)
				}
				// Where no class keeps a slab the reference's private pass
				// is the same search, so it must give the same answer.
				keeper := false
				for d := 0; d < c.NumClasses(); d++ {
					keeper = keeper || c.Slabs(d) >= 2
				}
				if rc, rs, rv, rok := refCheapestOutgoing(p); !keeper && (gc != rc || gs != rs || gv != rv || gok != rok) {
					t.Fatalf("%s op %d: CheapestOutgoing = (%d, %d, %v, %v), reference (%d, %d, %v, %v)",
						name, op, gc, gs, gv, gok, rc, rs, rv, rok)
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	if wholeClass == 0 {
		t.Error("no store left an engine without a single-subclass donor: the whole-class tiers went unexercised")
	}
	t.Logf("%d of the states checked had no single-subclass donor", wholeClass)
}
