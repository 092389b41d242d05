package kv

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestDefaultGeometryValid(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if got := g.MaxItemSize(); got != 1<<20 {
		t.Fatalf("MaxItemSize = %d, want %d", got, 1<<20)
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	over := math.MaxInt32
	over++ // an item's size is 32 bits (where int is, this wraps negative)
	cases := []Geometry{
		{SlabSize: 0, Base: 64, NumClasses: 4},
		{SlabSize: 1 << 20, Base: 0, NumClasses: 4},
		{SlabSize: 1 << 20, Base: 64, NumClasses: 0},
		{SlabSize: 1 << 10, Base: 64, NumClasses: 6}, // largest slot 2 KiB > 1 KiB slab
		{SlabSize: over, Base: 64, NumClasses: 4},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
}

func TestClassForBoundaries(t *testing.T) {
	g := DefaultGeometry()
	cases := []struct {
		size, want int
	}{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 20, 14}, {1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := g.ClassFor(c.size); got != c.want {
			t.Errorf("ClassFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestClassForFitsSlot(t *testing.T) {
	g := DefaultGeometry()
	f := func(size uint32) bool {
		s := int(size % uint32(g.MaxItemSize()+2))
		c := g.ClassFor(s)
		if s > g.MaxItemSize() {
			return c == -1
		}
		if c < 0 || c >= g.NumClasses {
			return false
		}
		if s > g.SlotSize(c) {
			return false // item must fit its slot
		}
		// Must be the smallest fitting class.
		return c == 0 || s > g.SlotSize(c-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableGeometry(t *testing.T) {
	g, err := NewTableGeometry(4096, []int{80, 200, 1000, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumClasses != 4 || g.MaxItemSize() != 4096 {
		t.Fatalf("geometry shape wrong: %+v", g)
	}
	cases := []struct{ size, want int }{
		{0, 0}, {1, 0}, {80, 0}, {81, 1}, {200, 1}, {201, 2},
		{1000, 2}, {1001, 3}, {4096, 3}, {4097, -1},
	}
	for _, c := range cases {
		if got := g.ClassFor(c.size); got != c.want {
			t.Errorf("ClassFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if got := g.SlotsPerSlab(0); got != 4096/80 {
		t.Errorf("SlotsPerSlab(0) = %d, want %d", got, 4096/80)
	}
}

func TestTableGeometryRejects(t *testing.T) {
	cases := []struct {
		slab  int
		slots []int
	}{
		{4096, nil},                 // empty table
		{4096, []int{}},             // empty table
		{4096, []int{64, 64}},       // not strictly increasing
		{4096, []int{128, 64}},      // decreasing
		{4096, []int{0, 64}},        // non-positive slot
		{4096, []int{64, 8192}},     // slot exceeds slab
		{0, []int{64}},              // bad slab size
		{4096, []int{-1, 64, 4096}}, // negative slot
	}
	for i, c := range cases {
		if _, err := NewTableGeometry(c.slab, c.slots); err == nil {
			t.Errorf("case %d: NewTableGeometry(%d, %v) accepted", i, c.slab, c.slots)
		}
	}
	// Mismatched NumClasses vs table length is rejected too.
	g := Geometry{SlabSize: 4096, NumClasses: 3, Slots: []int{64, 128}}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted NumClasses != len(Slots)")
	}
}

func TestTableGeometryEqualsPowerOfTwo(t *testing.T) {
	p2 := Geometry{SlabSize: 4096, Base: 64, NumClasses: 4}
	tab, err := NewTableGeometry(4096, []int{64, 128, 256, 512})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Equal(p2) || !p2.Equal(tab) {
		t.Fatal("table geometry with power-of-two slots should Equal the law form")
	}
	tab2, _ := NewTableGeometry(4096, []int{64, 128, 256, 1024})
	if tab2.Equal(p2) {
		t.Fatal("different slot tables must not be Equal")
	}
	if !p2.Equal(p2) || p2.IsZero() {
		t.Fatal("self-equality / IsZero broken")
	}
	if !(Geometry{}).IsZero() {
		t.Fatal("zero Geometry must report IsZero")
	}
}

func TestTableClassForFitsSlot(t *testing.T) {
	g, err := NewTableGeometry(1<<20, []int{48, 100, 333, 1024, 5000, 65536, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	f := func(size uint32) bool {
		s := int(size % uint32(g.MaxItemSize()+2))
		c := g.ClassFor(s)
		if s > g.MaxItemSize() {
			return c == -1
		}
		if c < 0 || c >= g.NumClasses {
			return false
		}
		if s > g.SlotSize(c) {
			return false
		}
		return c == 0 || s > g.SlotSize(c-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotsPerSlab(t *testing.T) {
	g := DefaultGeometry()
	if got := g.SlotsPerSlab(0); got != 16384 {
		t.Fatalf("SlotsPerSlab(0) = %d, want 16384", got)
	}
	if got := g.SlotsPerSlab(14); got != 1 {
		t.Fatalf("SlotsPerSlab(14) = %d, want 1", got)
	}
}

func TestKeyStringRoundTrip(t *testing.T) {
	f := func(id uint64) bool { return KeyID(KeyString(id)) == id }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyIDWrongShape(t *testing.T) {
	if KeyID("not8b") != 0 {
		t.Fatal("KeyID should return 0 for non-8-byte keys")
	}
}

func TestHashStringMatchesBytes(t *testing.T) {
	f := func(b []byte) bool { return HashString(string(b)) == HashBytes(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashStringSpreadsLowBits(t *testing.T) {
	// Short sequential keys must not collide in the low bits the index uses
	// for bucket selection.
	const n = 4096
	seen := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		h := HashString(KeyString(uint64(i))) & 1023
		seen[h]++
	}
	// With 4096 keys over 1024 buckets, a catastrophically biased hash puts
	// hundreds in one bucket; a decent one stays near the mean of 4.
	for b, c := range seen {
		if c > 32 {
			t.Fatalf("bucket %d received %d of %d keys: low bits not mixed", b, c, n)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Distinct inputs must map to distinct outputs (spot check).
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		m := Mix64(i)
		if prev, dup := seen[m]; dup {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, i, m)
		}
		seen[m] = i
	}
}

func TestOpString(t *testing.T) {
	if Get.String() != "get" || Set.String() != "set" || Delete.String() != "delete" {
		t.Fatal("Op.String mismatch")
	}
	if Op(77).String() != "op(77)" {
		t.Fatal("unknown Op formatting")
	}
}

func TestItemReset(t *testing.T) {
	var recs Records
	id, it := recs.New()
	recs.HoldKey(id, "k")
	it.Size, it.Penalty, it.Class = 10, 0.5, 3
	it.Reset()
	if it.Key() != "" || it.Size != 0 || it.Penalty != 0 || it.Class != 0 || it.Slot != 0 {
		t.Fatalf("Reset left state behind: %+v", it)
	}
}

// TestMapped: a mapping holds n zeroed, writable values, aligned for T;
// Unmap gives it back once, after which it holds nothing, and a nil Mapped
// holds nothing either.
func TestMapped(t *testing.T) {
	type rec struct {
		a uint64
		b uint32
	}
	m := Map[rec](1000)
	s := m.S()
	if len(s) != 1000 || uintptr(unsafe.Pointer(&s[0]))%unsafe.Alignof(rec{}) != 0 {
		t.Fatalf("Map(1000) gave %d values at %p", len(s), &s[0])
	}
	for i := range s {
		if s[i] != (rec{}) {
			t.Fatalf("value %d = %+v, want zero", i, s[i])
		}
		s[i] = rec{uint64(i), uint32(i)}
	}
	if s[999].a != 999 {
		t.Fatal("write lost")
	}
	m.Unmap()
	m.Unmap()
	if m.S() != nil {
		t.Fatal("an unmapped Mapped still holds values")
	}
	var none *Mapped[rec]
	none.Unmap()
	if none.S() != nil {
		t.Fatal("a nil Mapped holds values")
	}
}

// TestMappedGrow: a grown mapping keeps its values, and the ones past them
// read zero. On 64-bit Linux, where mremap grows it, its whole range is
// mapped after each growth, and it is unmapped exactly once: Unmap gives the
// range back, and a mapping made after that survives a second Unmap and the
// collector. A grown mapping that is dropped is unmapped by its finalizer.
// (A 32-bit process reuses a freed range too soon for /proc to tell.)
func TestMappedGrow(t *testing.T) {
	// inMaps reports whether one line of /proc/self/maps covers s's bytes.
	inMaps := func(s []uint64) bool {
		lo := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(s))))
		hi := lo + uint64(len(s))*8
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			r, _, _ := strings.Cut(line, " ")
			a, z, _ := strings.Cut(r, "-")
			x, _ := strconv.ParseUint(a, 16, 64)
			y, _ := strconv.ParseUint(z, 16, 64)
			if x <= lo && hi <= y {
				return true
			}
		}
		return false
	}
	linux := runtime.GOOS == "linux" && unsafe.Sizeof(uintptr(0)) == 8
	m := Map[uint64](512)
	n := 0
	for _, size := range []int{512, 600, 1 << 16, 1 << 20} {
		if size > len(m.S()) {
			m.Grow(size)
		}
		s := m.S()
		if len(s) != size {
			t.Fatalf("grown to %d values, holds %d", size, len(s))
		}
		for i := range s {
			if want := uint64(0); i < n {
				want = uint64(i) + 1
				if s[i] != want {
					t.Fatalf("growth to %d: value %d = %d, want %d", size, i, s[i], want)
				}
			} else if s[i] != 0 {
				t.Fatalf("growth to %d: new value %d = %d, want 0", size, i, s[i])
			}
			s[i] = uint64(i) + 1
		}
		n = size
		if linux && !inMaps(s) {
			t.Fatalf("the mapping grown to %d values is not mapped", size)
		}
	}
	old := m.S()
	m.Unmap()
	if !linux {
		return
	}
	if inMaps(old) {
		t.Fatal("Unmap left the grown mapping mapped")
	}
	next := Map[uint64](len(old))
	s := next.S()
	for i := range s {
		s[i] = 7
	}
	m.Unmap()
	runtime.GC()
	runtime.GC()
	if !inMaps(s) || s[0] != 7 || s[len(s)-1] != 7 {
		t.Fatal("a mapping made after Unmap was unmapped again")
	}
	next.Unmap()

	dropped := Map[uint64](16)
	dropped.Grow(1 << 18)
	s = dropped.S()
	dropped = nil
	for i := 0; i < 50 && inMaps(s); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if inMaps(s) {
		t.Fatal("a dropped grown mapping is still mapped")
	}
}
