package geom

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pamakv/internal/kv"
)

func TestHistogramObserveAndBuckets(t *testing.T) {
	h := NewHistogram(1 << 20)
	if h.MaxItem() != 1<<20 {
		t.Fatalf("MaxItem = %d", h.MaxItem())
	}
	sizes := []int{1, 8, 9, 64, 65, 100, 1 << 20, 1<<20 + 5, -3, 0}
	for _, s := range sizes {
		h.Observe(s)
	}
	if h.Total() != uint64(len(sizes)) {
		t.Fatalf("Total = %d, want %d", h.Total(), len(sizes))
	}
	if h.MaxObserved() != 1<<20 {
		t.Fatalf("MaxObserved = %d (oversize must clamp to MaxItem)", h.MaxObserved())
	}
	// Edges strictly increasing, last == maxItem.
	prev := 0
	for _, e := range h.edges {
		if e <= prev {
			t.Fatalf("edges not strictly increasing: %d after %d", e, prev)
		}
		prev = e
	}
	if prev != 1<<20 {
		t.Fatalf("last edge %d != maxItem", prev)
	}
}

func TestSolveSinglePointDistribution(t *testing.T) {
	// All items are 100 bytes: the best table has a boundary right at the
	// bucket containing 100, so per-item waste is tiny.
	h := NewHistogram(4096)
	for i := 0; i < 10000; i++ {
		h.Observe(100)
	}
	g, err := h.Solve(8, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxItemSize() != 4096 {
		t.Fatalf("final slot %d, want forced 4096", g.MaxItemSize())
	}
	cl := g.ClassFor(100)
	if cl < 0 {
		t.Fatal("100-byte item does not fit")
	}
	// The chosen slot for 100-byte items must waste < 10% (one histogram
	// bucket of slack), far better than the power-of-two 128-byte slot's 28%.
	if slot := g.SlotSize(cl); slot > 110 {
		t.Fatalf("slot for 100-byte items is %d, want <= 110", slot)
	}
	if w := h.PredictedWaste(g); w > 10 {
		t.Fatalf("predicted waste %f bytes/item, want <= 10", w)
	}
}

func TestSolveBeatsPowerOfTwoOnUniformSizes(t *testing.T) {
	// Uniform sizes in [1, 64 KiB]: power-of-two wastes ~25% of each item;
	// a learned 15-class table should cut that substantially.
	h := NewHistogram(1 << 20)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		h.Observe(1 + rng.Intn(1<<16))
	}
	p2 := kv.DefaultGeometry()
	learned, err := h.Solve(p2.NumClasses, p2.SlabSize, p2.MaxItemSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := learned.Validate(); err != nil {
		t.Fatal(err)
	}
	wp2 := h.PredictedWaste(p2)
	wl := h.PredictedWaste(learned)
	if wl >= wp2*0.8 {
		t.Fatalf("learned waste %.1f not >=20%% below power-of-two %.1f", wl, wp2)
	}
}

func TestSolveEmptyHistogramFallback(t *testing.T) {
	h := NewHistogram(1 << 20)
	g, err := h.Solve(15, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxItemSize() != 1<<20 {
		t.Fatalf("fallback max slot %d", g.MaxItemSize())
	}
}

func TestSolveRespectsClassBudget(t *testing.T) {
	h := NewHistogram(1 << 16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		h.Observe(1 + rng.Intn(1<<16))
	}
	for _, budget := range []int{1, 2, 3, 8, 40} {
		g, err := h.Solve(budget, 1<<20, 1<<16)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if g.NumClasses > budget {
			t.Fatalf("budget %d: got %d classes", budget, g.NumClasses)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if g.MaxItemSize() != 1<<16 {
			t.Fatalf("budget %d: max slot %d", budget, g.MaxItemSize())
		}
	}
}

func TestSolveMoreClassesNeverWorse(t *testing.T) {
	h := NewHistogram(1 << 16)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30000; i++ {
		h.Observe(1 + rng.Intn(1<<14))
	}
	prev := -1.0
	for _, budget := range []int{1, 2, 4, 8, 16} {
		g, err := h.Solve(budget, 1<<20, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		w := h.PredictedWaste(g)
		if prev >= 0 && w > prev+1e-9 {
			t.Fatalf("budget %d waste %.3f worse than smaller budget %.3f", budget, w, prev)
		}
		prev = w
	}
}

// mustFit asserts the geometry fits every size in the list.
func mustFit(t *testing.T, g kv.Geometry, sizes []int) {
	t.Helper()
	for _, s := range sizes {
		c := g.ClassFor(s)
		if c < 0 {
			t.Fatalf("size %d does not fit geometry (max %d)", s, g.MaxItemSize())
		}
		if s > g.SlotSize(c) {
			t.Fatalf("size %d assigned slot %d", s, g.SlotSize(c))
		}
	}
}

func FuzzBoundarySolver(f *testing.F) {
	// Seeds: empty, single bucket, max-item spike, and fig-trace-like size
	// mixes (the workload generator draws uniform within power-of-two bands,
	// so band edges ± jitter are representative).
	seed := func(sizes ...uint32) []byte {
		b := make([]byte, 4*len(sizes))
		for i, s := range sizes {
			binary.LittleEndian.PutUint32(b[4*i:], s)
		}
		return b
	}
	f.Add(uint16(15), seed())
	f.Add(uint16(1), seed(100))
	f.Add(uint16(8), seed(1<<20, 1<<20, 1<<20))
	f.Add(uint16(15), seed(64, 65, 100, 128, 129, 333, 1024, 4096, 65536))
	f.Add(uint16(3), seed(80, 80, 80, 80, 200, 200, 1000))
	f.Add(uint16(0), seed(1, 2, 3))
	f.Add(uint16(40), seed(512, 700, 900, 1100, 1500, 2100, 3000, 4200, 6000))

	f.Fuzz(func(t *testing.T, budget uint16, data []byte) {
		classes := int(budget%62) + 1
		h := NewHistogram(1 << 20)
		var sizes []int
		for i := 0; i+4 <= len(data) && len(sizes) < 4096; i += 4 {
			s := int(binary.LittleEndian.Uint32(data[i:]) % (1<<20 + 7))
			h.Observe(s)
			if s < 1 {
				s = 1
			}
			if s > 1<<20 {
				s = 1 << 20
			}
			sizes = append(sizes, s)
		}
		g, err := h.Solve(classes, 1<<20, 1<<20)
		if err != nil {
			t.Fatalf("Solve failed: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid geometry %+v: %v", g, err)
		}
		if g.NumClasses > classes {
			t.Fatalf("budget %d exceeded: %d classes", classes, g.NumClasses)
		}
		// Strictly monotone table (Validate checks it, but assert explicitly
		// since that is the fuzz contract).
		for c := 1; c < g.NumClasses; c++ {
			if g.SlotSize(c) <= g.SlotSize(c-1) {
				t.Fatalf("slots not monotone at class %d", c)
			}
		}
		mustFit(t, g, sizes)
		if w := h.PredictedWaste(g); w < 0 {
			t.Fatalf("negative predicted waste %f", w)
		}
	})
}
