package bufpool

import "testing"

func TestGetLenAndCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 66, 67, 100, 1024, 1 << 20, 1<<20 + 2} {
		b := Get(n)
		if len(*b) != n {
			t.Fatalf("Get(%d) len = %d", n, len(*b))
		}
		if cap(*b) < n {
			t.Fatalf("Get(%d) cap = %d", n, cap(*b))
		}
		Put(b)
	}
}

func TestTierForCoversProtocolMax(t *testing.T) {
	// A max-size data block plus its CRLF must still land in a tier, or
	// every 1 MiB SET would bypass the pool.
	if tierFor(1<<20+2) < 0 {
		t.Fatal("1 MiB + CRLF does not fit the largest tier")
	}
	if tierFor(1<<20+3) != -1 {
		t.Fatal("oversized request mapped to a tier")
	}
	for n := 0; n <= 1<<20+2; n += 4099 {
		tt := tierFor(n)
		if tt < 0 || tierSize(tt) < n {
			t.Fatalf("tierFor(%d) = %d (size %d)", n, tt, tierSize(tt))
		}
		if tt > 0 && tierSize(tt-1) >= n {
			t.Fatalf("tierFor(%d) = %d not minimal", n, tt)
		}
	}
}

func TestPutRefilesGrownBuffer(t *testing.T) {
	// A buffer that grew past its tier via append is filed under the
	// largest tier it covers, so a future Get of that tier still sees
	// enough capacity.
	b := make([]byte, 0, 5000)
	Put(&b)
	got := Get(4098) // largest tier size <= 5000
	if cap(*got) < 4098 {
		t.Fatalf("cap = %d", cap(*got))
	}
	Put(got)
}

func TestPutDropsTinyAndNil(t *testing.T) {
	Put(nil) // must not panic
	small := make([]byte, 10)
	Put(&small) // below the smallest tier: dropped, must not panic
	// Beyond the largest tier: dropped too, or the top tier would hand
	// multi-megabyte buffers round forever.
	huge := make([]byte, 0, 3<<20)
	Put(&huge)
	for i := 0; i < 4; i++ {
		if got := Get(1 << 20); cap(*got) > tierSize(numTiers-1) {
			t.Fatalf("Get(1 MiB) returned a pooled buffer of capacity %d", cap(*got))
		}
	}
}

// TestRoundTripAllocs pins the warm-pool Get/Put cycle at zero allocations:
// this is what lets a SET fill cost O(1) pooled allocations instead of one
// make per request.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the pooled-buffer gate cannot hold")
	}
	// Warm one tier.
	for i := 0; i < 16; i++ {
		Put(Get(1000))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get(1000)
		(*b)[0] = 1
		Put(b)
	})
	// A stray GC may empty the pool once mid-run; anything approaching one
	// allocation per cycle means the round trip itself allocates.
	if allocs > 0.5 {
		t.Fatalf("warm Get/Put allocates %.2f objects per cycle, want ~0", allocs)
	}
}
