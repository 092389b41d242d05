package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"
	"time"

	"pamakv/internal/kv"
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

// ownerByBinarySearch is Ring.Owner as it was before the successor table:
// every probe's successor found by a binary search over the points. The
// reference the table is held to, point for point.
func ownerByBinarySearch(r *Ring, key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := kv.HashString(key)
	var best int32
	bestDist := ^uint64(0)
	for p := 0; p < ringProbes; p++ {
		ph := kv.Mix64(h + uint64(p)*0x9e3779b97f4a7c15)
		i := successorByBinarySearch(r, ph)
		if d := r.points[i].hash - ph; d < bestDist {
			bestDist, best = d, r.points[i].node
		}
	}
	return r.members[best]
}

func successorByBinarySearch(r *Ring, h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

func ringShape(nodes, vnodes int) *Ring {
	members := make([]string, nodes)
	for i := range members {
		members[i] = fmt.Sprintf("10.0.0.%d:11211", i+1)
	}
	return NewRing(members, vnodes)
}

// checkSuccessors compares the table's successor with the binary search at
// the positions where an off-by-one shows: on every point, one either side
// of it, on every bucket boundary and at both ends of the hash space.
func checkSuccessors(t testing.TB, r *Ring) {
	t.Helper()
	probe := func(h uint64) {
		if got, want := r.successor(h), successorByBinarySearch(r, h); got != want {
			t.Fatalf("%d points: successor(%#x) = %d, binary search says %d", len(r.points), h, got, want)
		}
	}
	for _, p := range r.points {
		probe(p.hash - 1)
		probe(p.hash)
		probe(p.hash + 1)
	}
	for b := range r.first {
		start := uint64(b) << r.shift
		probe(start - 1)
		probe(start)
	}
	probe(0)
	probe(math.MaxUint64)
}

// TestRingOwnerMatchesReference: over 1.05 M keys and 15 ring shapes, the
// successor table gives every key the owner the binary search gives it.
func TestRingOwnerMatchesReference(t *testing.T) {
	const perShape = 70_000
	key := make([]byte, 0, 32)
	for _, nodes := range []int{1, 2, 3, 5, 8} {
		for _, vnodes := range []int{1, 7, 128} {
			r := ringShape(nodes, vnodes)
			checkSuccessors(t, r)
			for i := 0; i < perShape; i++ {
				key = strconv.AppendInt(append(key[:0], "key:"...), int64(i), 10)
				k := string(key)
				if got, want := r.Owner(k), ownerByBinarySearch(r, k); got != want {
					t.Fatalf("%d members x %d vnodes: Owner(%q) = %s, reference %s", nodes, vnodes, k, got, want)
				}
			}
		}
	}
}

// FuzzRingOwner draws the ring's shape, a key and a raw probe position from
// the input.
func FuzzRingOwner(f *testing.F) {
	f.Add(uint8(2), uint16(128), "key:1", uint64(0))
	f.Add(uint8(1), uint16(1), "", uint64(math.MaxUint64))
	f.Add(uint8(8), uint16(7), "gold/k", uint64(1)<<63)
	f.Fuzz(func(t *testing.T, nodes uint8, vnodes uint16, key string, h uint64) {
		r := ringShape(1+int(nodes%9), 1+int(vnodes%512))
		if got, want := r.Owner(key), ownerByBinarySearch(r, key); got != want {
			t.Fatalf("Owner(%q) = %s, reference %s", key, got, want)
		}
		if got, want := r.successor(h), successorByBinarySearch(r, h); got != want {
			t.Fatalf("successor(%#x) = %d, binary search says %d", h, got, want)
		}
		// The probe pinned to a point: the case a strict comparison gets wrong.
		p := r.points[int(h%uint64(len(r.points)))].hash
		if got, want := r.successor(p), successorByBinarySearch(r, p); got != want {
			t.Fatalf("successor(point %#x) = %d, binary search says %d", p, got, want)
		}
	})
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

// BenchmarkHotCacheGet is the other per-key cost of a non-owner: a hot-cache
// hit on a 100-byte value, copied into a reused buffer.
func BenchmarkHotCacheGet(b *testing.B) {
	h := NewHotCache(DefaultHotCacheBytes, time.Minute)
	ks := keys(1024)
	val := make([]byte, 100)
	for _, k := range ks {
		h.Put(k, 0, val)
	}
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, _ = h.Get(ks[i&1023], dst[:0])
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
