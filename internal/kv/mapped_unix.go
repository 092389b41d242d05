//go:build unix && !(linux && (amd64 || arm64))

package kv

import (
	"fmt"
	"syscall"
)

// mapBytes maps n bytes of anonymous memory outside the Go heap.
func mapBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		// What the runtime does when the heap cannot grow.
		panic(fmt.Sprintf("kv: mapping %d bytes: %v", n, err))
	}
	return b
}

// unmapBytes unmaps b, a whole slice mapBytes returned (syscall.Munmap finds
// the mapping by its first and last bytes).
func unmapBytes(b []byte) { _ = syscall.Munmap(b) }

// remapBytes cannot resize a mapping: syscall.Munmap would refuse one that
// mremap moved (mapped_linux.go).
func remapBytes([]byte, int) []byte { return nil }
