package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pamakv/internal/kv"
	"pamakv/internal/valuetable"
)

// TestOverwriteInPlaceModel is the seeded model run for the store path's one
// rule (setLocked): a full four-class, two-subclass cache under eviction
// pressure takes overwrites that keep the class, change it, change the
// penalty subclass, set and clear a TTL, under-state their size (charged the
// value's length), add/replace/cas hits and misses, incr on an overwritten value,
// deletes and evict → ghost → re-SET.
//
// The exact leg runs alone against a map plus per-stack LRU order (the
// oracle of TestOracleFullCommandSet, one stack per class and subclass):
// which stores overwrite in place and keep their item, every hit's value, CAS
// token and tracked segment, every miss, every eviction victim and the order
// of every stack. The concurrent leg replays the same operations with two
// readers hammering the self-describing keys; there evictions cannot be predicted, so a miss
// is believed, and a hit must still carry the last bytes stored under its
// key — never torn, never another key's. Rerun a failure with
// PAMA_MODEL_SEED=<logged seed>.
func TestOverwriteInPlaceModel(t *testing.T) {
	seed := modelSeed(t)
	t.Run("exact", func(t *testing.T) { runOverwriteModel(t, seed, false) })
	t.Run("concurrent", func(t *testing.T) { runOverwriteModel(t, seed, true) })
}

const (
	owKeys     = 320            // "k<i>": several times what the cache holds
	owOverhead = itemHeader + 8 // size charged beyond the value
	owNseg     = 3
)

type owEntry struct {
	value    []byte
	cas      uint64
	size     int
	pen      float64
	expireAt int64
	class    int // exact mode: the stack the key is on
	sub      int
}

type owModel struct {
	t   *testing.T
	c   *Cache
	pol *nullPolicy
	now *atomic.Int64
	op  int
	ent map[string]*owEntry
	// exact is off on the concurrent leg: a miss of a key the model holds is
	// then believed, not reported.
	exact  bool
	stacks [][][]string // [class][sub], MRU first
	slabs  []int
	free   int
}

func (m *owModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("op %d: "+format, append([]any{m.op}, args...)...)
}

func (m *owModel) live(e *owEntry) bool {
	return e != nil && (e.expireAt == 0 || e.expireAt > m.now.Load())
}

func (m *owModel) unstack(key string, e *owEntry) {
	s := m.stacks[e.class][e.sub]
	for i, k := range s {
		if k == key {
			m.stacks[e.class][e.sub] = append(s[:i], s[i+1:]...)
			return
		}
	}
	m.fatalf("model lost %q from stack (%d,%d)", key, e.class, e.sub)
}

// forget drops key from the model.
func (m *owModel) forget(key string) {
	if e := m.ent[key]; e != nil {
		if m.exact {
			m.unstack(key, e)
		}
		delete(m.ent, key)
	}
}

// peek returns the resident item of key and its CAS token, without touching
// any engine state.
func (m *owModel) peek(key string) (it *kv.Item, cas uint64) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	if it = m.c.record(key); it != nil {
		return it, it.CAS
	}
	return nil, 0
}

// startExact begins the exact leg on the empty engine: empty stacks, every
// slab free.
func (m *owModel) startExact() {
	c := m.c
	m.stacks = make([][][]string, len(c.classes))
	for ci := range m.stacks {
		m.stacks[ci] = make([][]string, len(c.classes[ci].subs))
	}
	m.slabs = make([]int, len(c.classes))
	m.free = c.FreeSlabs()
	m.exact = true
}

// verify compares every stack's order with the engine's.
func (m *owModel) verify() {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for ci := range c.classes {
		if got := c.slabs.Slabs(ci); got != m.slabs[ci] {
			m.fatalf("class %d owns %d slabs, model says %d", ci, got, m.slabs[ci])
		}
		for si := range c.classes[ci].subs {
			want := m.stacks[ci][si]
			i := len(want)
			c.classes[ci].subs[si].list.AscendFromBack(func(_ uint32, it *kv.Item) bool {
				i--
				if i < 0 || want[i] != it.Key() {
					m.fatalf("stack (%d,%d): engine holds %q at %d from the top, model %v", ci, si, it.Key(), i, want)
				}
				return true
			})
			if i != 0 {
				m.fatalf("stack (%d,%d): engine holds %d items fewer than the model's %v", ci, si, i, want)
			}
		}
	}
}

// store applies one store to the engine and the model. mode and tok are
// SetMode's; the model decides what the engine must answer.
func (m *owModel) store(key string, mode SetMode, tok uint64, size int, pen float64, expireAt int64, value []byte) {
	m.t.Helper()
	c := m.c
	e := m.ent[key]
	var want error
	switch {
	case mode == ModeAdd && m.live(e):
		want = ErrNotStored
	case (mode == ModeReplace || mode == ModeCAS) && !m.live(e):
		want = ErrNotStored
	case mode == ModeCAS && tok != e.cas:
		want = ErrCASMismatch
	}
	before, beforeCAS := m.peek(key)
	st0 := c.Stats()
	err := c.SetMode(key, mode, tok, size, pen, 0, expireAt, value)
	st1 := c.Stats()
	overwrote := st1.Overwrites - st0.Overwrites
	if mode != ModeSet && e != nil && !m.live(e) {
		// A conditional store looks its key up by the liveness rule: the dead
		// item is reaped before the condition is judged.
		if m.exact && before != nil && st1.Expired != st0.Expired+1 { // off the exact leg a reader may reap it first
			m.fatalf("conditional store over expired %q reaped %d items", key, st1.Expired-st0.Expired)
		}
		m.forget(key)
		e = nil
	}

	refused := errors.Is(err, ErrNotStored) || errors.Is(err, ErrCASMismatch)
	if want != nil || refused {
		// Off the exact leg a key the model holds may have been evicted
		// unseen: then an add stores and a replace or cas finds nothing.
		evicted := !m.exact && m.live(e) && refused == (mode != ModeAdd) && !errors.Is(err, ErrCASMismatch)
		switch {
		case evicted:
			m.forget(key)
			e = nil
		case !errors.Is(err, want):
			m.fatalf("store mode %d of %q -> %v, want %v (model entry %+v)", mode, key, err, want, e)
		}
		if refused {
			if st1.Sets != st0.Sets || overwrote != 0 {
				m.fatalf("refused store of %q counted as one", key)
			}
			return
		}
	}

	size = max(size, itemHeader+len(key)+len(value)) // record, key and value larger than size are charged their length
	cl := c.geom.ClassFor(size)
	sub := c.subclassFor(pen)
	if m.exact {
		// Predict the path and the room-making exactly.
		inPlace := e != nil && e.class == cl
		if got := overwrote == 1; got != inPlace {
			m.fatalf("set %q (class %d -> %d): overwrote in place %v, model says %v", key, classOf(e), cl, got, inPlace)
		}
		if e != nil {
			m.unstack(key, e)
			delete(m.ent, key)
		}
		used := 0
		for _, s := range m.stacks[cl] {
			used += len(s)
		}
		noSpace := false
		if used == m.slabs[cl]*c.classes[cl].spc {
			switch {
			case m.free > 0:
				m.free--
				m.slabs[cl]++
			default:
				best, bestN := -1, 0
				for si, s := range m.stacks[cl] {
					if len(s) > bestN {
						best, bestN = si, len(s)
					}
				}
				if best < 0 {
					noSpace = true
					break
				}
				s := m.stacks[cl][best]
				delete(m.ent, s[len(s)-1])
				m.stacks[cl][best] = s[:len(s)-1]
			}
		}
		if noSpace != errors.Is(err, ErrNoSpace) || (err != nil && !noSpace) {
			m.fatalf("set %q into class %d -> %v, model predicts no-space %v", key, cl, err, noSpace)
		}
		if noSpace {
			return
		}
		m.stacks[cl][sub] = append([]string{key}, m.stacks[cl][sub]...)
	} else {
		switch {
		case errors.Is(err, ErrNoSpace):
			delete(m.ent, key) // the old incarnation was freed first
			return
		case err != nil:
			m.fatalf("set %q: %v", key, err)
		}
	}
	after, cas := m.peek(key)
	if after == nil && !m.exact {
		delete(m.ent, key) // a reader's GET already reaped it (expired on arrival)
		return
	}
	if after == nil {
		m.fatalf("stored %q is not resident", key)
	}
	if cas <= beforeCAS || (e != nil && cas <= e.cas) {
		m.fatalf("store of %q moved its CAS token %d -> %d", key, beforeCAS, cas)
	}
	if overwrote == 1 && after != before {
		m.fatalf("in-place store of %q changed its item", key)
	}
	m.ent[key] = &owEntry{value: value, cas: cas, size: size, pen: pen, expireAt: expireAt, class: cl, sub: sub}
}

func classOf(e *owEntry) int {
	if e == nil {
		return -1
	}
	return e.class
}

// read applies one GET (or gets) to the engine and the model.
func (m *owModel) read(key string, withCAS bool) {
	m.t.Helper()
	c := m.c
	e := m.ent[key]
	nhits := 0
	if m.exact { // otherwise the readers' hits append to it too
		nhits = len(m.pol.hits)
	}
	var val []byte
	var cas uint64
	var hit bool
	if withCAS {
		val, _, cas, hit = c.GetWithCAS(key, nil)
	} else {
		val, _, hit = c.Get(key, 0, 0, nil)
	}
	switch {
	case hit && !m.live(e):
		m.fatalf("get %q hit %x, model holds %+v", key, val, e)
	case hit:
		if !bytes.Equal(val, e.value) || (withCAS && cas != e.cas) {
			m.fatalf("get %q -> %x cas %d, last stored %x cas %d", key, val, cas, e.value, e.cas)
		}
		if m.exact {
			s := m.stacks[e.class][e.sub]
			pos := 0
			for pos < len(s) && s[len(s)-1-pos] != key {
				pos++
			}
			seg := pos / c.classes[e.class].spc
			if seg >= owNseg {
				seg = -1
			}
			if len(m.pol.hits) != nhits+1 || m.pol.hits[nhits] != seg {
				m.fatalf("hit of %q at %d from the bottom of (%d,%d): policy saw segments %v, want %d",
					key, pos, e.class, e.sub, m.pol.hits[nhits:], seg)
			}
			m.unstack(key, e)
			m.stacks[e.class][e.sub] = append([]string{key}, m.stacks[e.class][e.sub]...)
		}
	case m.live(e) && m.exact:
		m.fatalf("get %q missed, model holds %x", key, e.value)
	default:
		m.forget(key) // expired and reaped by this get, or evicted unseen
	}
}

func runOverwriteModel(t *testing.T, seed int64, concurrent bool) {
	rng := rand.New(rand.NewSource(seed))
	var now atomic.Int64
	now.Store(1_000_000)
	pol := &nullPolicy{bounds: []float64{0.1, 10}, nseg: owNseg, gseg: 2}
	c, err := New(Config{
		Geometry:    valueGeom(), // 4 KiB slabs, slots 128/256/512/1024
		CacheBytes:  10 * 4096,
		StoreValues: true,
		WindowLen:   997,
		Now:         now.Load,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	m := &owModel{t: t, c: c, pol: pol, now: &now, ent: map[string]*owEntry{}}
	if !concurrent {
		m.startExact()
	}

	if concurrent {
		stop := make(chan struct{})
		var readers sync.WaitGroup
		var bad atomic.Value
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rr := rand.New(rand.NewSource(seed + int64(r) + 1))
				var buf []byte
				for {
					select {
					case <-stop:
						return
					default:
					}
					id := rr.Intn(owKeys)
					key := "k" + strconv.Itoa(id)
					var hit bool
					if rr.Intn(2) == 0 {
						buf, _, hit = c.Get(key, 0, 0, buf[:0])
					} else {
						buf, _, _, hit = c.GetWithCAS(key, buf[:0])
					}
					if hit && (!selfValueIntact(buf) || binary.LittleEndian.Uint64(buf)&0xfff != uint64(id)) {
						bad.Store(fmt.Sprintf("reader got a torn or foreign value under %q: %x", key, buf))
						return
					}
				}
			}(r)
		}
		defer func() {
			close(stop)
			readers.Wait()
			if msg := bad.Load(); msg != nil {
				t.Fatal(msg)
			}
		}()
	}

	// valueIn returns a self-describing value of key id whose charged size
	// falls in class cl.
	valueIn := func(id, cl int) []byte {
		lo := 8
		if cl > 0 {
			lo = max(lo, c.geom.SlotSize(cl-1)+1-owOverhead)
		}
		hi := c.geom.SlotSize(cl) - owOverhead
		return selfValue(rng.Uint64()<<12|uint64(id), lo+rng.Intn(hi-lo+1))
	}
	pens := [...]float64{0.01, 1} // subclass 0 and 1
	ttl := func() int64 {
		if rng.Intn(8) == 0 {
			return now.Load() + int64(rng.Intn(5)) // +0: expired on arrival
		}
		return 0 // an overwrite clears whatever TTL the key had
	}

	const ops = 12000
	for m.op = 0; m.op < ops; m.op++ {
		if rng.Intn(30) == 0 {
			now.Add(int64(1 + rng.Intn(3)))
		}
		id := rng.Intn(owKeys)
		if rng.Intn(3) == 0 {
			id = rng.Intn(owKeys / 8) // a hot eighth: most stores find their key resident
		}
		key := "k" + strconv.Itoa(id)
		e := m.ent[key]
		// A key lives in its home class and subclass until an operation
		// below moves it.
		cl, pen := id%c.geom.NumClasses, pens[id/4%2]
		if e != nil {
			pen = e.pen
			if now := c.geom.ClassFor(e.size); now >= 0 {
				cl = now
			}
		}
		size := func(v []byte) int { return len(v) + owOverhead }
		switch r := rng.Intn(24); {
		case r < 7: // store in the class the key is in: in place when resident
			v := valueIn(id, cl)
			m.store(key, ModeSet, 0, size(v), pen, ttl(), v)
		case r < 9: // store into another class
			v := valueIn(id, (cl+1+rng.Intn(c.geom.NumClasses-1))%c.geom.NumClasses)
			m.store(key, ModeSet, 0, size(v), pen, ttl(), v)
		case r < 11: // same class, the other penalty subclass
			v := valueIn(id, cl)
			m.store(key, ModeSet, 0, size(v), pens[0]+pens[1]-pen, ttl(), v)
		case r < 12: // a size that under-states the value: it is charged key and value's length
			if cl == c.geom.NumClasses-1 {
				continue
			}
			v := valueIn(id, cl+1)
			m.store(key, ModeSet, 0, c.geom.SlotSize(cl), pen, 0, v)
		case r < 13: // add: stores only over a dead or absent key
			v := valueIn(id, cl)
			m.store(key, ModeAdd, 0, size(v), pen, ttl(), v)
		case r < 14: // replace: stores only over a live key
			v := valueIn(id, cl)
			m.store(key, ModeReplace, 0, size(v), pen, ttl(), v)
		case r < 16: // cas with the right token, or one off
			var tok uint64
			if e != nil {
				tok = e.cas + uint64(rng.Intn(2))
			}
			v := valueIn(id, cl)
			m.store(key, ModeCAS, tok, size(v), pen, ttl(), v)
		case r < 17: // incr on a value an overwrite left behind
			nkey := "n" + strconv.Itoa(rng.Intn(8))
			v := []byte(strconv.Itoa(rng.Intn(1_000_000)))
			m.store(nkey, ModeSet, 0, size(v), 0.01, 0, v)
			if ne := m.ent[nkey]; ne != nil {
				cur, _ := strconv.ParseUint(string(ne.value), 10, 64)
				next, err := c.Delta(nkey, 7, false)
				if err != nil || next != cur+7 {
					m.fatalf("incr %q after a store of %d -> %d, %v", nkey, cur, next, err)
				}
				// In place (the digits fit the slot): no LRU move, a new
				// token, the size moved by the change in length.
				nv := []byte(strconv.FormatUint(next, 10))
				ne.size += len(nv) - len(ne.value)
				ne.value = nv
				old := ne.cas
				if _, ne.cas = m.peek(nkey); ne.cas <= old {
					m.fatalf("incr %q kept its CAS token %d", nkey, old)
				}
			}
		case r < 18: // delete
			got := c.Delete(key)
			if want := m.live(e); got != want && (m.exact || got) {
				m.fatalf("delete %q -> %v, model holds %+v", key, got, e)
			}
			m.forget(key)
		default:
			m.read(key, rng.Intn(2) == 0)
		}
		if m.exact {
			m.verify()
		}
		if m.exact || m.op%101 == 0 { // every op, but sparsely while readers race
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", m.op, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for key := range m.ent {
		m.read(key, true)
	}
	st := c.Stats()
	if st.Overwrites < ops/8 || st.Overwrites > st.Sets/10*9 || st.Evictions == 0 || st.GhostHits == 0 ||
		st.Expired == 0 {
		t.Fatalf("run did not exercise every store path: %+v", st)
	}
}

// TestCheckInvariantsCatchesResidentGhost: the store path probes the ghost
// index only when the resident probe misses, and an eviction inserts its
// ghost without looking for one to replace; both lean on a key never being
// resident and ghosted at once, so CheckInvariants has to notice when it is.
func TestCheckInvariantsCatchesResidentGhost(t *testing.T) {
	c, err := New(Config{Geometry: smallGeom(), CacheBytes: 2 * 4096}, &nullPolicy{gseg: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", 40, 0.01, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.ghosts.push(&c.classes[0].subs[0].ghost, c.ownerOf(0, 0), kv.HashString("k"), 0.01)
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "resident and also a ghost") {
		t.Fatalf("CheckInvariants = %v, want the resident-and-ghost report", err)
	}
}

// TestCheckInvariantsCatchesResidentStale: a store drops the key's stale copy
// only when it inserts, so a key must never be resident and in the node's
// stale table at once, and CheckInvariants has to notice when it is.
func TestCheckInvariantsCatchesResidentStale(t *testing.T) {
	stale := valuetable.New(1<<16, 0)
	c, err := New(Config{Geometry: smallGeom(), CacheBytes: 2 * 4096, StoreValues: true, Stale: stale}, &nullPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", 40, 0.01, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stale.Put("k", 0, []byte("old"))
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "resident and also a stale entry") {
		t.Fatalf("CheckInvariants = %v, want the resident-and-stale report", err)
	}
}
