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

// Snapshot format: magic, the record count, then one record per resident
// item in recency order (least recently used first), so replaying the
// records through the normal Set path rebuilds both contents and LRU
// ordering. Ghost regions and window statistics are deliberately not
// persisted — they are short-horizon signals that a restarted cache
// re-learns within a window — so nothing in a file ties it to the engine,
// or the number of engines, that wrote it.
var snapMagic = [8]byte{'P', 'A', 'M', 'A', 'S', 'N', 'P', '1'}

// StoreFunc is where ReadSnapshot hands each record: (*Cache).SetTTL's
// signature, so an engine or a group that routes by key can take them.
type StoreFunc func(key string, size int, pen float64, flags uint32, expireAt int64, value []byte) error

// SaveSnapshot writes every resident item to w, least recently used first.
func (c *Cache) SaveSnapshot(w io.Writer) error { return WriteSnapshot(w, []*Cache{c}) }

// LoadSnapshot replays a snapshot through the normal store path. It is
// meant for a freshly constructed cache; loading into a non-empty cache
// merges (snapshot items become most recent). Items that no longer fit
// (smaller cache than at save time) fall out through ordinary eviction.
func (c *Cache) LoadSnapshot(r io.Reader) error {
	return ReadSnapshot(r, c.geom.MaxItemSize(), c.SetTTL)
}

// WriteSnapshot writes the resident items of engines under one header: the
// magic, their total count, then each engine's records in engine order,
// least recently used first within each stack. Every engine stays locked
// for the duration, taken in index order (nothing else holds two engine
// locks at once, so the order cannot deadlock); callers snapshot at quiet
// moments (shutdown) or accept the pause.
func WriteSnapshot(w io.Writer, engines []*Cache) error {
	var n uint64
	for _, c := range engines {
		c.mu.Lock()
		defer c.mu.Unlock()
		n += uint64(c.index.Len())
	}
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
	if err := writeU64(n); err != nil {
		return err
	}
	write := func(it *kv.Item) error {
		if err := writeU64(uint64(it.KLen)); err != nil {
			return err
		}
		if _, err := bw.WriteString(it.Key()); err != nil {
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
		if err := writeU64(uint64(it.VLen)); err != nil {
			return err
		}
		_, err := bw.Write(it.Value())
		return err
	}
	// LRU-first within each stack; stacks are interleaved class by class,
	// which preserves the ordering that matters (within-stack recency).
	for _, c := range engines {
		for ci := range c.classes {
			for si := range c.classes[ci].subs {
				var err error
				c.classes[ci].subs[si].list.AscendFromBack(func(_ uint32, it *kv.Item) bool {
					err = write(it)
					return err == nil
				})
				if err != nil {
					return fmt.Errorf("cache: writing snapshot record: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}

// ReadSnapshot replays a snapshot's records through store in file order. A
// value longer than maxValue marks the file as corrupt; a record the store
// refuses for space or size is skipped, as an eviction would have.
func ReadSnapshot(r io.Reader, maxValue int, store StoreFunc) error {
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
		var f [5]uint64 // size, flags, deadline, penalty bits, value length
		for j := range f {
			if f[j], err = readU64(); err != nil {
				return fmt.Errorf("cache: truncated snapshot at record %d: %w", i, err)
			}
		}
		size, flags, expire, penBits, vlen := f[0], f[1], f[2], f[3], f[4]
		if vlen > uint64(maxValue) {
			return fmt.Errorf("cache: implausible value length %d in snapshot", vlen)
		}
		if uint64(cap(valBuf)) < vlen {
			valBuf = make([]byte, vlen)
		}
		valBuf = valBuf[:vlen]
		if _, err := io.ReadFull(br, valBuf); err != nil {
			return fmt.Errorf("cache: truncated snapshot value: %w", err)
		}
		err = store(string(keyBuf), int(size), floatBinary(penBits), uint32(flags), int64(expire), valBuf)
		if err != nil && !errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrTooLarge) {
			return err
		}
	}
	return nil
}

// binaryFloat and floatBinary round-trip a float64 through its IEEE bits.
func binaryFloat(f float64) uint64    { return math.Float64bits(f) }
func floatBinary(bits uint64) float64 { return math.Float64frombits(bits) }
