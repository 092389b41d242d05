package cluster

import (
	"time"

	"pamakv/internal/valuetable"
)

// HotCache defaults: a few MiB catches the hot head of a Zipf workload
// without meaningfully competing with the main engine's slab budget, and a
// one-second TTL bounds how stale a forwarded copy can get when another
// node writes the key.
const (
	DefaultHotCacheBytes = 4 << 20
	DefaultHotCacheTTL   = time.Second
)

// NewHotCache builds a non-owner's mini-cache of forwarded peer hits: a
// value table with a hard TTL (defaults apply for values <= 0). It absorbs
// repeat reads of hot remote keys, so a skewed workload does not turn the
// owner of the hottest key into the cluster's bottleneck (the
// Memshare/groupcache "hot item" argument). Entries are advisory — a hit may
// be up to TTL stale relative to the owner — so the server consults it only
// for plain GETs, never for gets/cas.
func NewHotCache(maxBytes int64, ttl time.Duration) *valuetable.Table {
	if maxBytes <= 0 {
		maxBytes = DefaultHotCacheBytes
	}
	if ttl <= 0 {
		ttl = DefaultHotCacheTTL
	}
	return valuetable.New(maxBytes, ttl)
}
