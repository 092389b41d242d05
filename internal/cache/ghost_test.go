package cache

import (
	"reflect"
	"testing"
	"unsafe"

	"pamakv/internal/kv"
)

// ghostModel is one region as a plain slice, newest first: a ghost's segment
// is its index divided by spc.
type ghostModel struct {
	r      ghostRegion
	owner  uint16
	hashes []uint64
}

// checkAgainst compares every ghost of m's region with the model and audits
// the region.
func (m *ghostModel) checkAgainst(t *testing.T, g *ghostTable) {
	t.Helper()
	pos := 0
	for i := m.r.newest; i != 0; i = g.recs[i].older {
		if pos >= len(m.hashes) || g.recs[i].hash != m.hashes[pos] {
			t.Fatalf("region %d: ghost at position %d is not the model's", m.owner, pos)
		}
		if got, want := int(g.recs[i].seg), pos/m.r.spc; got != want {
			t.Fatalf("region %d: ghost at position %d tagged %d, the model says %d", m.owner, pos, got, want)
		}
		pos++
	}
	if pos != len(m.hashes) {
		t.Fatalf("region %d holds %d ghosts, the model %d", m.owner, pos, len(m.hashes))
	}
	if err := g.check(&m.r, m.owner); err != nil {
		t.Fatalf("region %d: %v", m.owner, err)
	}
}

// TestGhostTagsNewestFirst: the newest slab's worth of ghosts is segment 0,
// each push moves every older ghost one position up, and a region keeps
// segments × slots-per-slab ghosts.
func TestGhostTagsNewestFirst(t *testing.T) {
	var g ghostTable
	r := newRegion(3, 2)
	for h := uint64(1); h <= 8; h++ {
		g.push(&r, 0, h, 0.5)
		if err := g.check(&r, 0); err != nil {
			t.Fatalf("push %d: %v", h, err)
		}
	}
	// Newest first: 8..6 segment 0, 5..3 segment 1; 2 and 1 aged out.
	for h, want := range map[uint64]int{8: 0, 7: 0, 6: 0, 5: 1, 4: 1, 3: 1, 2: -1, 1: -1} {
		i := g.find(h)
		if got := -1; i != 0 {
			got = int(g.recs[i].seg)
			if got != want {
				t.Fatalf("ghost %d in segment %d, want %d", h, got, want)
			}
		} else if want != -1 {
			t.Fatalf("ghost %d is gone, want it in segment %d", h, want)
		}
	}
	// A removal from segment 0 pulls the oldest ghost of segment 1 down.
	g.remove(&r, g.find(7))
	if i := g.find(5); g.recs[i].seg != 0 {
		t.Fatalf("after a removal below it ghost 5 is in segment %d, want 0", g.recs[i].seg)
	}
	if err := g.check(&r, 0); err != nil {
		t.Fatal(err)
	}
}

// TestGhostTableGrowsInPlace: the records grow by an eighth at a time in one
// mapping (kv.Mapped.Grow), which keeps every ghost, its tag, penalty and
// links, from 64 records to past 10 000, and one Unmap gives it back.
func TestGhostTableGrowsInPlace(t *testing.T) {
	var g ghostTable
	m := &ghostModel{r: newRegion(100, 120), owner: 3}
	g.push(&m.r, m.owner, 1, 1)
	m.hashes = []uint64{1}
	mem, grown := g.recMem, 0
	for h := uint64(2); h <= 11_000; h++ {
		c := cap(g.recs)
		g.push(&m.r, m.owner, h, float64(h))
		m.hashes = append([]uint64{h}, m.hashes...)
		if cap(g.recs) != c {
			grown++
			m.checkAgainst(t, &g)
		}
	}
	if g.recMem != mem || grown < 20 {
		t.Fatalf("%d growths to %d records moved the records to another mapping: %v", grown, cap(g.recs), g.recMem != mem)
	}
	for _, h := range m.hashes {
		if i := g.find(h); i == 0 || g.recs[i].pen != float64(h) {
			t.Fatalf("ghost %d lost its penalty or its record", h)
		}
	}
	g.recMem.Unmap()
	if g.recMem.S() != nil {
		t.Fatal("the grown records are still mapped")
	}
	g.bucketMem.Unmap()
}

// FuzzGhostTags decodes bytes into pushes, removals from any position,
// lookups and shrinks over two regions of one table, and compares every
// ghost's segment
// with a walk of a slice model after every operation. The first two bytes
// pick the first region's shape, slots per slab 1 and one segment included;
// hashes come from a small space, so ghosts share buckets.
func FuzzGhostTags(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 1, 0})
	f.Add([]byte{3, 2, 0, 1, 0, 2, 2, 3, 0, 4, 1, 1, 0, 5, 2, 9, 1, 0})
	f.Add([]byte{1, 0, 0, 1, 0, 3, 0, 5, 0, 7, 1, 2, 2, 6, 0, 9, 1, 0, 1, 0})
	f.Add([]byte{2, 1, 0, 1, 0, 2, 128, 3, 0, 4, 3, 0, 1, 1, 0, 6, 131, 0, 0, 8, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		var g ghostTable
		ms := []*ghostModel{
			{r: newRegion(1+int(ops[0]%4), 1+int(ops[1]%4)), owner: 0},
			{r: newRegion(2, 2), owner: 1},
		}
		next := uint64(0)
		for ops = ops[2:]; len(ops) >= 2; ops = ops[2:] {
			m := ms[ops[0]>>7]
			switch arg := int(ops[1]); ops[0] % 4 {
			case 0: // push a hash no ghost has
				next++
				h := next<<8 | uint64(arg)%3 // three buckets' worth of low bits
				g.push(&m.r, m.owner, h, float64(arg))
				m.hashes = append([]uint64{h}, m.hashes...)
				m.hashes = m.hashes[:min(len(m.hashes), m.r.cap)]
			case 1: // remove from anywhere
				if len(m.hashes) == 0 {
					break
				}
				j := arg % len(m.hashes)
				i := g.find(m.hashes[j])
				if i == 0 {
					t.Fatalf("ghost %#x is not found", m.hashes[j])
				}
				g.remove(&m.r, i)
				m.hashes = append(m.hashes[:j], m.hashes[j+1:]...)
			case 2: // look up a hash that may have aged out
				h := uint64(arg)<<8 | uint64(arg)%3
				if i := g.find(h); i != 0 && g.recs[i].hash != h {
					t.Fatalf("find(%#x) returned ghost of %#x", h, g.recs[i].hash)
				}
			case 3: // rebuild the table, sparse or not
				g.shrink([]*ghostRegion{&ms[0].r, &ms[1].r})
			}
			n := 0
			for _, m := range ms {
				m.checkAgainst(t, &g)
				n += len(m.hashes)
			}
			if g.n != n {
				t.Fatalf("table counts %d ghosts, the regions hold %d", g.n, n)
			}
		}
	})
}

// TestGhostBytes pins a ghost's cost: a pointer-free 32-byte record, and at
// most ghostBytesMax bytes of heap per ghost, index included, once the ghost
// regions of a full engine are at capacity.
func TestGhostBytes(t *testing.T) {
	typ := reflect.TypeOf(ghostRec{})
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Uint64, reflect.Float64, reflect.Int32, reflect.Uint16:
		default:
			t.Fatalf("ghostRec.%s is a %s: a ghost holds no Go pointer", typ.Field(i).Name, typ.Field(i).Type)
		}
	}
	if got := unsafe.Sizeof(ghostRec{}); got != 32 {
		t.Fatalf("a ghost record is %d bytes, want 32", got)
	}
	c, err := New(Config{
		Geometry:   kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 4},
		CacheBytes: 8 << 16,
	}, &nullPolicy{gseg: 3, bounds: []float64{0.1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		if err := c.Set(kv.KeyString(uint64(i)), 40, float64(i%2), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	in := c.Introspect()
	want := 0
	for _, sub := range c.classes[0].subs {
		want += sub.ghost.cap
	}
	if in.GhostEntries != want {
		t.Fatalf("%d ghosts, want class 0's regions full at %d", in.GhostEntries, want)
	}
	if per := float64(in.GhostBytes) / float64(in.GhostEntries); per > ghostBytesMax {
		t.Fatalf("a ghost costs %.1f bytes of heap, want at most %d", per, ghostBytesMax)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostBytesAtLowWater: ghosts that fall to a quarter of the table's
// records are repacked at the next window rollover, so a ghost still costs
// at most ghostBytesMax once three quarters of them are gone.
func TestGhostBytesAtLowWater(t *testing.T) {
	c, err := New(Config{
		Geometry:   kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 4},
		CacheBytes: 8 << 16,
		WindowLen:  1 << 17, // the fill and the removals stay inside one window
	}, &nullPolicy{gseg: 3, bounds: []float64{0.1}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 16
	for i := 0; i < n; i++ {
		if err := c.Set(kv.KeyString(uint64(i)), 40, float64(i%2), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	full := c.Introspect().GhostEntries
	// A delete forgets the key's ghost: remove three quarters of them.
	for i := 0; i < n && c.Introspect().GhostEntries > full/4; i++ {
		c.Delete(kv.KeyString(uint64(i)))
	}
	rolled := c.Stats().WindowRollovers
	if rolled != 0 {
		t.Fatalf("%d windows closed before the removals were done", rolled)
	}
	if in := c.Introspect(); in.GhostBytes/int64(in.GhostEntries) <= ghostBytesMax {
		t.Fatalf("before a window: %d ghosts in %d bytes, want the high-water records still held", in.GhostEntries, in.GhostBytes)
	}
	for c.Stats().WindowRollovers == rolled {
		c.Get("never-stored", 0, 0, nil)
	}
	in := c.Introspect()
	if in.GhostEntries == 0 || in.GhostEntries > full/4 {
		t.Fatalf("%d ghosts after the window, want a quarter of %d", in.GhostEntries, full)
	}
	if per := float64(in.GhostBytes) / float64(in.GhostEntries); per > ghostBytesMax {
		t.Fatalf("a ghost costs %.1f bytes of heap after the window, want at most %d", per, ghostBytesMax)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
