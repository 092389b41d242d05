package kv

import (
	"runtime"
	"unsafe"
)

// Mapped is a slice of n values of T in memory mapped outside the Go heap
// (mapped_unix.go; a heap slice where the platform has no mmap): an engine's
// slab pages, its index slots and its ghost tables. T must hold no Go
// pointer, since the collector neither scans nor frees the memory. Nothing is
// touched when it is mapped: the kernel faults each 4 KiB page in as it is
// first written, zeroed. No mapping gets huge-page advice: a huge page faults
// 2 MiB in at once, which raised the resident memory of a cache holding few
// values, and the tables' advice moved no benchmark (DESIGN.md §10).
//
// A Mapped is a leaf object: it points at nothing of its owner, so the
// finalizer that unmaps the memory of a dropped owner hangs on it. A
// finalizer on an object of a cycle (a hash table whose records point back
// into its engine) would never run.
type Mapped[T any] struct{ s []T }

// Map returns n zeroed values of T, mapped.
func Map[T any](n int) *Mapped[T] {
	var zero T
	b := mapBytes(n * int(unsafe.Sizeof(zero)))
	m := &Mapped[T]{s: unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)}
	runtime.SetFinalizer(m, (*Mapped[T]).free)
	return m
}

// S returns the mapped values, valid until Unmap; none for a nil Mapped.
func (m *Mapped[T]) S() []T {
	if m == nil {
		return nil
	}
	return m.s
}

// Unmap returns the memory and its address range to the kernel. A nil
// Mapped holds nothing.
func (m *Mapped[T]) Unmap() {
	if m != nil {
		runtime.SetFinalizer(m, nil)
		m.free()
	}
}

func (m *Mapped[T]) free() {
	if len(m.s) > 0 {
		var zero T
		unmapBytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m.s))), len(m.s)*int(unsafe.Sizeof(zero))))
	}
	m.s = nil
}
