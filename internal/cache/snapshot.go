package cache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pamakv/internal/kv"
)

// Snapshot format: magic, then one record per resident item in recency
// order (least recently used first), so replaying the records through the
// normal Set path rebuilds both contents and LRU ordering. Ghost regions
// and window statistics are deliberately not persisted — they are
// short-horizon signals that a restarted cache re-learns within a window.
var snapMagic = [8]byte{'P', 'A', 'M', 'A', 'S', 'N', 'P', '1'}

// SaveSnapshot writes every resident item to w, least recently used first.
// The cache stays locked for the duration; callers snapshot at quiet
// moments (shutdown) or accept the pause.
func (c *Cache) SaveSnapshot(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(snapMagic[:]); err != nil {
		return fmt.Errorf("cache: writing snapshot header: %w", err)
	}
	var scratch [8]byte
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	n := uint64(c.index.Len())
	if err := writeU64(n); err != nil {
		return err
	}
	write := func(it *kv.Item) error {
		if err := writeU64(uint64(len(it.Key))); err != nil {
			return err
		}
		if _, err := bw.WriteString(it.Key); err != nil {
			return err
		}
		if err := writeU64(uint64(it.Size)); err != nil {
			return err
		}
		if err := writeU64(uint64(it.Flags)); err != nil {
			return err
		}
		if err := writeU64(uint64(it.ExpireAt)); err != nil {
			return err
		}
		if err := writeU64(binaryFloat(it.Penalty)); err != nil {
			return err
		}
		if err := writeU64(uint64(len(it.Value))); err != nil {
			return err
		}
		_, err := bw.Write(it.Value)
		return err
	}
	// LRU-first within each stack; stacks are interleaved class by class,
	// which preserves the ordering that matters (within-stack recency).
	for ci := range c.classes {
		for si := range c.classes[ci].subs {
			var err error
			c.classes[ci].subs[si].list.AscendFromBack(func(it *kv.Item) bool {
				err = write(it)
				return err == nil
			})
			if err != nil {
				return fmt.Errorf("cache: writing snapshot record: %w", err)
			}
		}
	}
	return bw.Flush()
}

// LoadSnapshot replays a snapshot through the normal store path. It is
// meant for a freshly constructed cache; loading into a non-empty cache
// merges (snapshot items become most recent). Items that no longer fit
// (smaller cache than at save time) fall out through ordinary eviction.
func (c *Cache) LoadSnapshot(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return fmt.Errorf("cache: reading snapshot header: %w", err)
	}
	if got != snapMagic {
		return fmt.Errorf("cache: bad snapshot magic %q", got[:])
	}
	var scratch [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	n, err := readU64()
	if err != nil {
		return fmt.Errorf("cache: reading snapshot count: %w", err)
	}
	var keyBuf, valBuf []byte
	for i := uint64(0); i < n; i++ {
		klen, err := readU64()
		if err != nil {
			return fmt.Errorf("cache: truncated snapshot at record %d: %w", i, err)
		}
		if klen > 1<<20 {
			return fmt.Errorf("cache: implausible key length %d in snapshot", klen)
		}
		if uint64(cap(keyBuf)) < klen {
			keyBuf = make([]byte, klen)
		}
		keyBuf = keyBuf[:klen]
		if _, err := io.ReadFull(br, keyBuf); err != nil {
			return fmt.Errorf("cache: truncated snapshot key: %w", err)
		}
		size, err := readU64()
		if err != nil {
			return err
		}
		flags, err := readU64()
		if err != nil {
			return err
		}
		expire, err := readU64()
		if err != nil {
			return err
		}
		penBits, err := readU64()
		if err != nil {
			return err
		}
		vlen, err := readU64()
		if err != nil {
			return err
		}
		if vlen > uint64(c.geom.MaxItemSize()) {
			return fmt.Errorf("cache: implausible value length %d in snapshot", vlen)
		}
		if uint64(cap(valBuf)) < vlen {
			valBuf = make([]byte, vlen)
		}
		valBuf = valBuf[:vlen]
		if _, err := io.ReadFull(br, valBuf); err != nil {
			return fmt.Errorf("cache: truncated snapshot value: %w", err)
		}
		err = c.SetTTL(string(keyBuf), int(size), floatBinary(penBits), uint32(flags), int64(expire), valBuf)
		if err != nil && !errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrTooLarge) {
			return err
		}
	}
	return nil
}

// binaryFloat and floatBinary round-trip a float64 through its IEEE bits.
func binaryFloat(f float64) uint64    { return math.Float64bits(f) }
func floatBinary(bits uint64) float64 { return math.Float64frombits(bits) }
