// Package bufpool provides tiered byte-buffer pools for the serving path's
// transient buffers: SET data blocks, rendered peer requests, and any other
// short-lived []byte whose size is request-dependent.
//
// The tiers mirror the default slab-class geometry (base 64 bytes, doubling
// per class, topping out at the 1 MiB value cap) so a pooled buffer is the
// same shape as the slot the bytes are headed for; each tier carries two
// bytes of slack for the protocol's CRLF data-block terminator, letting a
// value that exactly fills a slab class still be framed without spilling to
// the next tier.
//
// Buffers travel as *[]byte so a Get/Put round trip performs no allocation
// once the pool is warm (storing a bare []byte in a sync.Pool would box the
// slice header on every Put). Ownership is strict hand-off: after Put the
// caller must not touch the buffer again.
package bufpool

import "sync"

const (
	// baseSize matches kv.DefaultGeometry's class-0 slot (64 bytes).
	baseSize = 64
	// numTiers spans 64 B .. 1 MiB, doubling — one tier per default slab
	// class shape.
	numTiers = 15
	// slack is the CRLF terminator headroom added to every tier.
	slack = 2
)

var tiers [numTiers]sync.Pool

// tierSize returns the capacity of tier t: the slab-class slot size plus
// CRLF slack.
func tierSize(t int) int { return baseSize<<t + slack }

// tierFor returns the smallest tier whose buffers hold n bytes, or -1 when
// n exceeds the largest tier.
func tierFor(n int) int {
	for t := 0; t < numTiers; t++ {
		if n <= tierSize(t) {
			return t
		}
	}
	return -1
}

// Get returns a buffer with len n, drawn from the smallest tier that fits.
// Requests beyond the largest tier are served by a plain allocation (Put
// will drop them). The contents are unspecified — callers overwrite.
func Get(n int) *[]byte {
	t := tierFor(n)
	if t < 0 {
		b := make([]byte, n)
		return &b
	}
	if v := tiers[t].Get(); v != nil {
		b := v.(*[]byte)
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n, tierSize(t))
	return &b
}

// Put returns b to the pool serving its capacity. A buffer that grew past
// its tier is filed under the largest tier it still covers; buffers smaller
// than the smallest tier or larger than the largest (or nil) are dropped for
// the GC: a multi-megabyte buffer recycled through the top tier would never
// leave the heap. After Put the buffer belongs to the pool: the caller must
// not retain any view of it.
func Put(b *[]byte) {
	if b == nil {
		return
	}
	c := cap(*b)
	if c < tierSize(0) || c > tierSize(numTiers-1) {
		return
	}
	t := numTiers - 1
	for t > 0 && tierSize(t) > c {
		t--
	}
	*b = (*b)[:0]
	tiers[t].Put(b)
}
