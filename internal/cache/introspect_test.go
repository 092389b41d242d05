package cache

import (
	"encoding/json"
	"fmt"
	"testing"
)

// reportingPolicy is a nullPolicy that also reports decision counters, so
// the snapshot's Decisions plumbing can be exercised without importing a
// real policy (which would cycle).
type reportingPolicy struct {
	nullPolicy
	dec PolicyDecisions
}

func (r *reportingPolicy) ReportDecisions() PolicyDecisions { return r.dec }

func TestIntrospectAttributesHitsAndMisses(t *testing.T) {
	// Three penalty subclasses: (0, 0.01], (0.01, 0.1], and everything above
	// (the last bound is a catch-all in penalty.SubclassFor).
	pol := &nullPolicy{bounds: []float64{0.01, 0.1, 1e9}}
	c := newTestCache(t, 8, pol)

	// Two items in class 0 (size 10 < 64), different penalty bands, and one
	// in class 2 (size 200).
	mustSet := func(key string, size int, pen float64) {
		t.Helper()
		if err := c.Set(key, size, pen, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustSet("cheap", 10, 0.001) // sub 0
	mustSet("dear", 10, 1.0)    // sub 2
	mustSet("big", 200, 0.05)   // class 2, sub 1

	for i := 0; i < 3; i++ {
		c.Get("cheap", 10, 0.001, nil)
	}
	c.Get("dear", 10, 1.0, nil)
	c.Get("big", 200, 0.05, nil)
	// Attributed misses: size+penalty hints locate the would-be home.
	c.Get("absent-cheap", 10, 0.001, nil)
	c.Get("absent-dear", 10, 1.0, nil)
	// Unattributed miss: no size hint, no ghost.
	c.Get("absent-cold", 0, 0, nil)

	in := c.Introspect()
	if in.Classes != 4 || in.Subclasses != 3 {
		t.Fatalf("dims = (%d,%d), want (4,3)", in.Classes, in.Subclasses)
	}
	wantHits := [][]uint64{{3, 0, 1}, {0, 0, 0}, {0, 1, 0}, {0, 0, 0}}
	for ci := range wantHits {
		for si := range wantHits[ci] {
			if got := in.SubHits[ci][si]; got != wantHits[ci][si] {
				t.Errorf("SubHits[%d][%d] = %d, want %d", ci, si, got, wantHits[ci][si])
			}
		}
	}
	if in.SubMisses[0][0] != 1 || in.SubMisses[0][2] != 1 {
		t.Errorf("SubMisses[0] = %v, want [1 0 1]", in.SubMisses[0])
	}
	// Attribution must reconcile with the engine counters: every hit lands
	// in exactly one cell, misses only when locatable.
	var subHitSum, subMissSum uint64
	for ci := range in.SubHits {
		for si := range in.SubHits[ci] {
			subHitSum += in.SubHits[ci][si]
			subMissSum += in.SubMisses[ci][si]
		}
	}
	if subHitSum != in.Stats.Hits {
		t.Errorf("sum(SubHits) = %d, want Stats.Hits = %d", subHitSum, in.Stats.Hits)
	}
	if subMissSum > in.Stats.Misses {
		t.Errorf("sum(SubMisses) = %d exceeds Stats.Misses = %d", subMissSum, in.Stats.Misses)
	}
	// SubLens must agree with resident items.
	var lenSum int
	for ci := range in.SubLens {
		for _, n := range in.SubLens[ci] {
			lenSum += n
		}
	}
	if lenSum != in.Items || in.Items != 3 {
		t.Errorf("sum(SubLens) = %d, Items = %d, want both 3", lenSum, in.Items)
	}
	if in.Decisions != nil {
		t.Errorf("Decisions = %+v for non-reporting policy, want nil", in.Decisions)
	}
	// Snapshot must not emit NaN/Inf through JSON (the /statsz contract).
	if _, err := json.Marshal(in); err != nil {
		t.Fatalf("json.Marshal(Introspection): %v", err)
	}
}

func TestIntrospectSlabMoveMatrix(t *testing.T) {
	c := newTestCache(t, 8, &nullPolicy{})
	if err := c.Set("a", 10, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", 200, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.MigrateSlab(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.MigrateSlab(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	in := c.Introspect()
	if in.SlabMoves[0][1] != 1 || in.SlabMoves[2][1] != 1 {
		t.Errorf("SlabMoves = %v, want [0][1]=1 and [2][1]=1", in.SlabMoves)
	}
	var moveSum uint64
	for _, row := range in.SlabMoves {
		for _, v := range row {
			moveSum += v
		}
	}
	if moveSum != in.Stats.SlabMigrations {
		t.Errorf("sum(SlabMoves) = %d, want Stats.SlabMigrations = %d", moveSum, in.Stats.SlabMigrations)
	}
}

func TestIntrospectReportsPolicyDecisions(t *testing.T) {
	pol := &reportingPolicy{dec: PolicyDecisions{SameClass: 3, NotWorthIt: 7}}
	c := newTestCache(t, 4, pol)
	in := c.Introspect()
	if in.Decisions == nil {
		t.Fatal("Decisions = nil for reporting policy")
	}
	if in.Decisions.NotWorthIt != 7 || in.Decisions.SameClass != 3 {
		t.Errorf("Decisions = %+v", *in.Decisions)
	}
}

func TestIntrospectionMerge(t *testing.T) {
	build := func(keys ...string) *Cache {
		c := newTestCache(t, 8, &reportingPolicy{dec: PolicyDecisions{SameClass: 2, Forced: 1}})
		for _, k := range keys {
			if err := c.Set(k, 10, 0, 0, nil); err != nil {
				t.Fatal(err)
			}
			c.Get(k, 10, 0, nil)
		}
		c.Get("absent", 10, 0, nil)
		return c
	}
	a := build("a1", "a2")
	b := build("b1", "b2", "b3")
	in := a.Introspect()
	in.Merge(b.Introspect())
	if in.Items != 5 {
		t.Errorf("merged Items = %d, want 5", in.Items)
	}
	if in.Stats.Gets != 7 || in.Stats.Hits != 5 || in.Stats.Misses != 2 {
		t.Errorf("merged Stats = %+v, want Gets=7 Hits=5 Misses=2", in.Stats)
	}
	if in.SubHits[0][0] != 5 {
		t.Errorf("merged SubHits[0][0] = %d, want 5", in.SubHits[0][0])
	}
	if in.SubMisses[0][0] != 2 {
		t.Errorf("merged SubMisses[0][0] = %d, want 2", in.SubMisses[0][0])
	}
	if in.Slabs[0] != a.Slabs(0)+b.Slabs(0) {
		t.Errorf("merged Slabs[0] = %d, want %d", in.Slabs[0], a.Slabs(0)+b.Slabs(0))
	}
	if in.Decisions == nil || in.Decisions.SameClass != 4 || in.Decisions.Forced != 2 {
		t.Errorf("merged Decisions = %+v, want SameClass=4 Forced=2", in.Decisions)
	}
	// Merged totals must still reconcile.
	if got := fmt.Sprint(in.TotalSlabs); got != fmt.Sprint(a.TotalSlabsBudget()+b.TotalSlabsBudget()) {
		t.Errorf("merged TotalSlabs = %s", got)
	}
}
