package cache

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	pol := &nullPolicy{bounds: []float64{0.01, 5}}
	src, err := New(Config{
		Geometry:    smallGeom(),
		CacheBytes:  4 * 4096,
		StoreValues: true,
		WindowLen:   1 << 50,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v := fmt.Sprintf("value-%d", i)
		if err := src.Set(fmt.Sprintf("k%d", i), len(v), 0.02, uint32(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := New(Config{
		Geometry:    smallGeom(),
		CacheBytes:  4 * 4096,
		StoreValues: true,
		WindowLen:   1 << 50,
	}, &nullPolicy{bounds: []float64{0.01, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Items() != 50 {
		t.Fatalf("restored %d items, want 50", dst.Items())
	}
	for i := 0; i < 50; i++ {
		val, flags, hit := dst.Get(fmt.Sprintf("k%d", i), 0, 0, nil)
		if !hit || string(val) != fmt.Sprintf("value-%d", i) || flags != uint32(i) {
			t.Fatalf("k%d restored wrong: hit=%v val=%q flags=%d", i, hit, val, flags)
		}
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotPreservesLRUOrder(t *testing.T) {
	src := newTestCache(t, 1, &nullPolicy{})
	for i := 0; i < 64; i++ {
		src.Set(fmt.Sprintf("k%d", i), 50, 0.02, 0, nil)
	}
	src.Get("k0", 0, 0, nil) // refresh the oldest item
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newTestCache(t, 1, &nullPolicy{})
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// One insert must evict the restored LRU item: k1 (k0 was refreshed
	// before the save, so it must survive).
	dst.Set("new", 50, 0.02, 0, nil)
	if dst.Contains("k1") {
		t.Fatal("restored LRU order lost: k1 should have been evicted first")
	}
	if !dst.Contains("k0") {
		t.Fatal("refreshed item did not survive restore+evict")
	}
}

func TestSnapshotIntoSmallerCache(t *testing.T) {
	src := newTestCache(t, 4, &nullPolicy{})
	for i := 0; i < 200; i++ {
		src.Set(fmt.Sprintf("k%d", i), 50, 0.02, 0, nil)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newTestCache(t, 1, &nullPolicy{}) // quarter the capacity
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Items() != 64 {
		t.Fatalf("restored %d items into 64 slots", dst.Items())
	}
	// The survivors must be the most recent tail of the snapshot.
	if !dst.Contains("k199") || dst.Contains("k0") {
		t.Fatal("wrong survivors after shrinking restore")
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotTTLPreserved(t *testing.T) {
	now := int64(1000)
	mk := func() *Cache {
		c, err := New(Config{
			Geometry:    smallGeom(),
			CacheBytes:  2 * 4096,
			StoreValues: true,
			WindowLen:   1 << 50,
			Now:         func() int64 { return now },
		}, &nullPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	src := mk()
	src.SetTTL("mortal", 50, 0.02, 0, 1500, []byte("x"))
	src.Set("immortal", 50, 0.02, 0, []byte("y"))
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := mk()
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	now = 2000
	if _, _, hit := dst.Get("mortal", 0, 0, nil); hit {
		t.Fatal("TTL lost in snapshot: expired item served")
	}
	if _, _, hit := dst.Get("immortal", 0, 0, nil); !hit {
		t.Fatal("immortal item lost")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	c := newTestCache(t, 1, &nullPolicy{})
	if err := c.LoadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated: valid header then nothing.
	var buf bytes.Buffer
	src := newTestCache(t, 1, &nullPolicy{})
	src.Set("k", 50, 0.02, 0, nil)
	src.SaveSnapshot(&buf)
	data := buf.Bytes()[:buf.Len()-4]
	if err := c.LoadSnapshot(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	src := newTestCache(t, 1, &nullPolicy{})
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newTestCache(t, 1, &nullPolicy{})
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Items() != 0 {
		t.Fatal("phantom items from empty snapshot")
	}
}

// TestLoadSnapshotGoldenBytes pins the file format: these bytes were written
// by SaveSnapshot at PR 19's commit (three items over three classes, one with
// a TTL), and every later engine must restore key, size, flags, deadline,
// penalty and value from them unchanged.
func TestLoadSnapshotGoldenBytes(t *testing.T) {
	const fixture = "50414d41534e5031" + "0300000000000000" +
		"0500000000000000616c706861" + "1500000000000000" + "0700000000000000" + "0000000000000000" + "7b14ae47e17a943f" + "0b00000000000000" + "66697273742d76616c7565" +
		"050000000000000067616d6d61" + "4600000000000000" + "0100000000000000" + "0000000000000000" + "000000000000e03f" + "0500000000000000" + "7468697264" +
		"040000000000000062657461" + "c800000000000000" + "0000000000000000" + "005786f400000000" + "0000000000002140" + "0600000000000000" + "7365636f6e64"
	raw, err := hex.DecodeString(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(Config{Geometry: smallGeom(), CacheBytes: 4 * 4096, StoreValues: true, Now: func() int64 { return 1_700_000_000 }},
		&nullPolicy{bounds: []float64{0.01, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		key           string
		size          int32
		flags, expire uint32
		pen           float64
		value         string
	}{
		{key: "alpha", size: 21, flags: 7, pen: 0.02, value: "first-value"},
		{key: "beta", size: 200, expire: 4102444800, pen: 8.5, value: "second"},
		{key: "gamma", size: 70, flags: 1, pen: 0.5, value: "third"},
	} {
		dst.mu.Lock()
		it := dst.record(want.key)
		dst.mu.Unlock()
		if it == nil || it.Size != want.size || it.Flags != want.flags || it.ExpireAt != want.expire ||
			it.Penalty != want.pen || string(it.Value()) != want.value {
			t.Fatalf("%s restored as %+v, want %+v", want.key, it, want)
		}
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
