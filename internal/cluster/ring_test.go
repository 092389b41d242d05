package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key:%d", i)
	}
	return out
}

func TestRingDeterministicAcrossNodes(t *testing.T) {
	members := []string{"c:3", "a:1", "b:2"}
	// Two rings built from differently ordered member lists must agree on
	// every owner — each node builds its own ring locally. Duplicates and
	// empty entries are dropped, so they change nothing either.
	r1 := NewRing(members, 128)
	r2 := NewRing([]string{"b:2", "", "c:3", "a:1", "b:2"}, 128)
	if got := r2.Members(); len(got) != 3 {
		t.Fatalf("Members = %v, want 3 entries", got)
	}
	for _, k := range keys(10_000) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("rings from permuted member lists disagree on %q: %s vs %s",
				k, r1.Owner(k), r2.Owner(k))
		}
	}
	if o := NewRing(nil, 16).Owner("k"); o != "" {
		t.Fatalf("empty ring Owner = %q, want \"\"", o)
	}
	solo := NewRing([]string{"only:1"}, 8)
	for _, k := range keys(100) {
		if solo.Owner(k) != "only:1" {
			t.Fatal("single-member ring missed a key")
		}
	}
}

// TestRingBalance is the ring-distribution acceptance bench: with 128
// vnodes, the keys-per-node imbalance (max deviation from the mean) must
// stay under 10%.
func TestRingBalance(t *testing.T) {
	for _, nodes := range []int{3, 5, 8} {
		members := make([]string, nodes)
		for i := range members {
			members[i] = fmt.Sprintf("10.0.0.%d:11211", i+1)
		}
		r := NewRing(members, 128)
		counts := make(map[string]int, nodes)
		const n = 100_000
		for _, k := range keys(n) {
			counts[r.Owner(k)]++
		}
		mean := float64(n) / float64(nodes)
		for m, c := range counts {
			dev := (float64(c) - mean) / mean
			if dev < 0 {
				dev = -dev
			}
			if dev > 0.10 {
				t.Errorf("%d nodes: member %s owns %d keys, %.1f%% from mean %.0f (want < 10%%)",
					nodes, m, c, 100*dev, mean)
			}
		}
		if len(counts) != nodes {
			t.Errorf("%d nodes: only %d received keys", nodes, len(counts))
		}
	}
}

// TestRingMinimalDisruption checks the consistent-hashing property: removing
// one of N members must move only the removed member's keys — every key
// owned by a survivor keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	before := NewRing(members, 128)
	after := NewRing([]string{"a:1", "b:2"}, 128)
	moved, total := 0, 0
	for _, k := range keys(50_000) {
		ob, oa := before.Owner(k), after.Owner(k)
		total++
		if ob == "c:3" {
			moved++
			if oa == "c:3" {
				t.Fatalf("removed member still owns %q", k)
			}
			continue
		}
		if ob != oa {
			t.Fatalf("key %q moved from surviving owner %s to %s", k, ob, oa)
		}
	}
	// The removed member should have owned roughly a third of the keys.
	if frac := float64(moved) / float64(total); frac < 0.25 || frac > 0.42 {
		t.Errorf("removal moved %.1f%% of keys, want ~33%%", 100*frac)
	}
}

func BenchmarkRingOwner(b *testing.B) {
	members := make([]string, 8)
	for i := range members {
		members[i] = fmt.Sprintf("10.0.0.%d:11211", i+1)
	}
	r := NewRing(members, 128)
	ks := keys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(ks[i&1023])
	}
}

// BenchmarkRingDistribution is the CI ring-distribution bench: it reports
// the keys-per-node imbalance at 128 vnodes as a custom metric
// (imbalance-pct must stay < 10, asserted by TestRingBalance).
func BenchmarkRingDistribution(b *testing.B) {
	members := make([]string, 5)
	for i := range members {
		members[i] = fmt.Sprintf("10.0.0.%d:11211", i+1)
	}
	ks := keys(100_000)
	var worst float64
	for i := 0; i < b.N; i++ {
		r := NewRing(members, 128)
		counts := make(map[string]int, len(members))
		for _, k := range ks {
			counts[r.Owner(k)]++
		}
		mean := float64(len(ks)) / float64(len(members))
		worst = 0
		for _, c := range counts {
			dev := (float64(c) - mean) / mean
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(100*worst, "imbalance-pct")
}
