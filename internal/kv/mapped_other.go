//go:build !unix

package kv

import "unsafe"

// mapBytes allocates n bytes on the Go heap, 8-byte aligned as the tables'
// values need: this platform has no syscall.Mmap.
func mapBytes(n int) []byte {
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), n)
}

// unmapBytes leaves the memory to the collector.
func unmapBytes([]byte) {}

// remapBytes cannot resize a heap slice.
func remapBytes([]byte, int) []byte { return nil }
