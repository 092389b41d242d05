package shard_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/shard"
	"pamakv/internal/tenant"
)

func snapCfg() cache.Config {
	return cache.Config{
		Geometry:    kv.Geometry{SlabSize: 4096, Base: 64, NumClasses: 4},
		CacheBytes:  64 * 4096,
		StoreValues: true,
		WindowLen:   1000,
	}
}

func pama() cache.Policy { return core.New(core.DefaultConfig()) }

// seeded is one item the source group holds and every restore must return.
type seeded struct {
	size     int
	pen      float64
	flags    uint32
	expireAt int64
	value    []byte
}

// seedGroup fills g with items of every class that holds one (class 0's
// 64-byte slot is a record alone) and five penalty levels, some with a TTL,
// spread over the two tenants' prefixes and the default tenant's bare keys,
// then reads a few back so stack order is not insertion order. An item's size
// is the one stored, or its record, key and value's when larger: what the
// engine charges.
func seedGroup(t *testing.T, g *shard.Group) map[string]seeded {
	t.Helper()
	sizes := []int{40, 100, 200, 400}
	pens := []float64{0.001, 0.02, 0.3, 2, 8}
	prefixes := []string{"gold/", "bronze/", ""}
	deadline := time.Now().Unix() + 3600
	want := map[string]seeded{}
	for i := 0; i < 160; i++ {
		key := fmt.Sprintf("%sk%d", prefixes[i%len(prefixes)], i)
		it := seeded{size: sizes[i%len(sizes)], pen: pens[i%len(pens)], flags: uint32(i * 7)}
		if i%3 == 0 {
			it.expireAt = deadline + int64(i)
		}
		it.value = bytes.Repeat([]byte{byte('a' + i%26)}, it.size/2+i%7)
		if err := g.SetTTL(key, it.size, it.pen, it.flags, it.expireAt, it.value); err != nil {
			t.Fatal(err)
		}
		it.size = max(it.size, 64+len(key)+len(it.value))
		want[key] = it
	}
	for i := 0; i < 160; i += 9 {
		g.Get(fmt.Sprintf("%sk%d", prefixes[i%len(prefixes)], i), 0, 0, nil)
	}
	return want
}

// checkRestored asserts that g holds exactly the seeded items, each with its
// value, flags, size, expiry and penalty byte for byte.
func checkRestored(t *testing.T, g *shard.Group, want map[string]seeded) {
	t.Helper()
	if g.Items() != len(want) {
		t.Fatalf("restored %d items, want %d", g.Items(), len(want))
	}
	g.ScanKeys(func(key string, pen float64, size int, expireAt int64) bool {
		w, ok := want[key]
		if !ok || pen != w.pen || size != w.size || expireAt != w.expireAt {
			t.Fatalf("%s restored as pen %g size %d expiry %d, want %+v", key, pen, size, expireAt, w)
		}
		return true
	})
	for key, w := range want {
		val, flags, hit := g.Get(key, 0, 0, nil)
		if !hit || flags != w.flags || !bytes.Equal(val, w.value) {
			t.Fatalf("%s restored as hit %v flags %d value %q, want flags %d value %q", key, hit, flags, val, w.flags, w.value)
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoresIntoAnyLayout saves a four-engine group and restores
// the file into one engine, two, and a two-tenant group: records re-route
// through the restoring group, so every live item comes back whatever layout
// wrote it. A restore into the saving layout gives every engine back its own
// records in their saved order, so saving it again writes the same bytes.
func TestSnapshotRestoresIntoAnyLayout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "four.snap")
	src, err := shard.New(snapCfg(), 4, pama)
	if err != nil {
		t.Fatal(err)
	}
	want := seedGroup(t, src)
	if err := src.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d engines", n), func(t *testing.T) {
			g, err := shard.New(snapCfg(), n, pama)
			if err != nil {
				t.Fatal(err)
			}
			if loaded, err := g.LoadSnapshotFile(path); err != nil || !loaded {
				t.Fatalf("LoadSnapshotFile = %v, %v", loaded, err)
			}
			checkRestored(t, g, want)
		})
	}

	t.Run("two tenants", func(t *testing.T) {
		reg, err := tenant.NewRegistry([]tenant.Config{
			{Name: "gold", ReservedBytes: 8 * 4096},
			{Name: "bronze", ReservedBytes: 8 * 4096},
		})
		if err != nil {
			t.Fatal(err)
		}
		g, members, err := tenant.NewGroup(reg, snapCfg(), 2, pama)
		if err != nil {
			t.Fatal(err)
		}
		if loaded, err := g.LoadSnapshotFile(path); err != nil || !loaded {
			t.Fatalf("LoadSnapshotFile = %v, %v", loaded, err)
		}
		checkRestored(t, g, want)
		if err := tenant.CheckIsolation(members); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("same layout keeps stack order", func(t *testing.T) {
		g, err := shard.New(snapCfg(), 4, pama)
		if err != nil {
			t.Fatal(err)
		}
		if loaded, err := g.LoadSnapshotFile(path); err != nil || !loaded {
			t.Fatalf("LoadSnapshotFile = %v, %v", loaded, err)
		}
		again := filepath.Join(dir, "again.snap")
		if err := g.SaveSnapshotFile(again); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(path)
		b, errB := os.ReadFile(again)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("re-saving a same-layout restore changed the file: an engine's records or their order moved")
		}
		checkRestored(t, g, want)
	})
}
