//go:build linux && (amd64 || arm64)

package kv

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The raw system calls map, grow and unmap the memory: syscall.Munmap finds
// only a mapping syscall.Mmap made, by its address, so it would refuse one
// that mremap moved.

// mapBytes maps n bytes of anonymous memory outside the Go heap.
func mapBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	return mapped(n, syscall.SYS_MMAP, 0, uintptr(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON, ^uintptr(0))
}

// unmapBytes unmaps b, a whole slice mapBytes or remapBytes returned.
func unmapBytes(b []byte) { syscall.Syscall(syscall.SYS_MUNMAP, addr(b), uintptr(len(b)), 0) }

// remapBytes resizes b, a whole slice mapBytes or remapBytes returned, to n
// bytes: mremap keeps its pages, moving the mapping when it cannot grow
// where it is, and the bytes past len(b) read zero.
func remapBytes(b []byte, n int) []byte {
	if len(b) == 0 {
		return mapBytes(n)
	}
	const mayMove = 1 // MREMAP_MAYMOVE
	return mapped(n, syscall.SYS_MREMAP, addr(b), uintptr(len(b)), uintptr(n), mayMove, 0)
}

// mapped makes system call trap, which returns the address of n mapped
// bytes, and returns them. The mapping is not Go memory, so holding its
// address as a uintptr hides nothing from the collector.
func mapped(n int, trap, a1, a2, a3, a4, a5 uintptr) []byte {
	p, _, errno := syscall.Syscall6(trap, a1, a2, a3, a4, a5, 0)
	if errno != 0 {
		// What the runtime does when the heap cannot grow.
		panic(fmt.Sprintf("kv: mapping %d bytes: %v", n, errno))
	}
	return unsafe.Slice(*(**byte)(unsafe.Pointer(&p)), n)
}

func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
