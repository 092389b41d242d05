package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pamakv/internal/kv"
)

// engineSet is a snapshot's source or target: one engine, or several behind
// a route by key hash, as a shard group holds them.
type engineSet []*Cache

func newEngineSet(t *testing.T, engines int) engineSet {
	t.Helper()
	s := make(engineSet, engines)
	for i := range s {
		s[i] = newTestCache(t, 4, &nullPolicy{})
	}
	return s
}

// SetTTL routes a restored record to its engine.
func (s engineSet) SetTTL(key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	return s[kv.HashString(key)>>48%uint64(len(s))].SetTTL(key, size, pen, flags, expireAt, value)
}

func (s engineSet) Items() int {
	n := 0
	for _, c := range s {
		n += c.Items()
	}
	return n
}

func (s engineSet) save(path string) error { return WriteSnapshotFile(path, s) }

func (s engineSet) load(path string) (bool, error) {
	return ReadSnapshotFile(path, smallGeom().MaxItemSize(), s.SetTTL)
}

func fillEngineSet(t *testing.T, engines, n int) engineSet {
	t.Helper()
	s := newEngineSet(t, engines)
	for i := 0; i < n; i++ {
		if err := s.SetTTL(fmt.Sprintf("k%d", i), 50, 0.02, uint32(i), 0, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func fillSnapshotCache(t *testing.T, n int) *Cache { return fillEngineSet(t, 1, n)[0] }

// snapshotLayouts are the two inputs the file tests run on: a single engine
// and a four-engine set written under one header.
var snapshotLayouts = []int{1, 4}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	src := fillSnapshotCache(t, 40)
	if err := src.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	dst := newTestCache(t, 4, &nullPolicy{})
	loaded, err := dst.LoadSnapshotFile(path)
	if err != nil || !loaded {
		t.Fatalf("LoadSnapshotFile = %v, %v", loaded, err)
	}
	if dst.Items() != src.Items() {
		t.Fatalf("restored %d items, want %d", dst.Items(), src.Items())
	}
	// Saving again replaces the file atomically and leaves no temp litter.
	if err := src.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("snapshot dir has %d entries, want just the snapshot: %v", len(ents), ents)
	}
}

func TestSnapshotFileMissingIsColdStart(t *testing.T) {
	c := newTestCache(t, 1, &nullPolicy{})
	loaded, err := c.LoadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap"))
	if err != nil {
		t.Fatalf("missing snapshot should be a clean cold start, got %v", err)
	}
	if loaded {
		t.Fatal("loaded=true for a missing file")
	}
}

// TestSnapshotFileKillMidWrite emulates a writer killed at every stage of a
// save, of one engine and of four under one header. With the temp-file +
// rename discipline, a death before the rename leaves only an orphaned temp
// file — the published snapshot still loads in full. The same partial bytes
// written over the snapshot path directly (what the old in-place writer would
// leave behind) must be refused with an error, never half-loaded.
func TestSnapshotFileKillMidWrite(t *testing.T) {
	for _, engines := range snapshotLayouts {
		t.Run(fmt.Sprintf("%d engines", engines), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "cache.snap")
			old := fillEngineSet(t, engines, 30)
			if err := old.save(path); err != nil {
				t.Fatal(err)
			}

			// The byte stream a crashed second save would have been writing.
			var full bytes.Buffer
			if err := WriteSnapshot(&full, fillEngineSet(t, engines, 60)); err != nil {
				t.Fatal(err)
			}
			cuts := []int{0, 1, 7, 8, 9, 16, full.Len() / 3, full.Len() / 2, full.Len() - 1}
			for _, cut := range cuts {
				partial := full.Bytes()[:cut]

				// Death before the rename: the partial bytes sit in a temp file.
				tmp := filepath.Join(dir, "cache.snap.tmp-orphan")
				if err := os.WriteFile(tmp, partial, 0o644); err != nil {
					t.Fatal(err)
				}
				dst := newEngineSet(t, engines)
				loaded, err := dst.load(path)
				if err != nil || !loaded {
					t.Fatalf("cut %d: published snapshot unreadable past orphan temp: %v", cut, err)
				}
				if dst.Items() != old.Items() {
					t.Fatalf("cut %d: restored %d items, want the old snapshot's %d", cut, dst.Items(), old.Items())
				}
				os.Remove(tmp)

				// The same death with in-place writing: the snapshot itself is
				// torn and must be refused.
				torn := filepath.Join(dir, "torn.snap")
				if err := os.WriteFile(torn, partial, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := newEngineSet(t, engines).load(torn); err == nil {
					t.Fatalf("cut %d: truncated snapshot accepted", cut)
				}
				os.Remove(torn)
			}
		})
	}
}

func TestSnapshotFileRefusesTruncated(t *testing.T) {
	for _, engines := range snapshotLayouts {
		t.Run(fmt.Sprintf("%d engines", engines), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.snap")
			if err := fillEngineSet(t, engines, 20).save(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := newEngineSet(t, engines).load(path); err == nil {
				t.Fatal("truncated snapshot file accepted")
			}
		})
	}
}
