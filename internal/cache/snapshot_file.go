package cache

import (
	"fmt"
	"os"
	"path/filepath"
)

// SaveSnapshotFile writes this engine's snapshot crash-safely
// (WriteSnapshotFile).
func (c *Cache) SaveSnapshotFile(path string) error { return WriteSnapshotFile(path, []*Cache{c}) }

// LoadSnapshotFile restores a snapshot file into this engine
// (ReadSnapshotFile).
func (c *Cache) LoadSnapshotFile(path string) (loaded bool, err error) {
	return ReadSnapshotFile(path, c.geom.MaxItemSize(), c.SetTTL)
}

// WriteSnapshotFile writes the engines' snapshot (WriteSnapshot)
// crash-safely: the bytes go to a temporary file in the same directory, are
// fsynced, and only then renamed over path (with a best-effort directory sync
// so the rename itself survives a crash). A reader of path therefore sees
// either the previous complete snapshot or the new complete snapshot, never a
// torn write — a process killed mid-save leaves at worst an orphaned temp
// file.
func WriteSnapshotFile(path string, engines []*Cache) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: creating snapshot temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = WriteSnapshot(tmp, engines); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("cache: syncing snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("cache: closing snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: publishing snapshot: %w", err)
	}
	if d, derr := os.Open(dir); derr == nil {
		// Not every platform supports fsync on a directory; the rename
		// is still atomic without it, just not yet durable.
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadSnapshotFile replays a snapshot saved by WriteSnapshotFile through
// store (ReadSnapshot). A missing file is a clean cold start (loaded=false,
// nil error); a present but corrupt or truncated snapshot is an error — the
// cache refuses to serve a silently partial data set.
func ReadSnapshotFile(path string, maxValue int, store StoreFunc) (loaded bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := ReadSnapshot(f, maxValue, store); err != nil {
		return false, err
	}
	return true, nil
}
