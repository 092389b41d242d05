package kv

import (
	"runtime"
	"unsafe"
)

// Mapped is a slice of n values of T in memory mapped outside the Go heap
// (mapped_linux.go, mapped_unix.go; a heap slice where the platform has no
// mmap): an engine's slab pages, its index slots and its ghost tables. T must
// hold no Go pointer, since the collector neither scans nor frees the
// memory. Nothing is
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
	m := new(Mapped[T])
	m.Grow(n)
	runtime.SetFinalizer(m, (*Mapped[T]).free)
	return m
}

// Grow resizes the mapping to n values, n at least its length, keeping its
// values; the new ones read zero. On Linux the kernel moves the pages
// (mremap), so growth faults in only the new memory; elsewhere remapBytes
// returns nil, and Grow maps, copies and unmaps. Slices S returned before
// are invalid after.
func (m *Mapped[T]) Grow(n int) {
	var zero T
	old := m.bytes()
	b := remapBytes(old, n*int(unsafe.Sizeof(zero)))
	if b == nil {
		b = mapBytes(n * int(unsafe.Sizeof(zero)))
		copy(b, old)
		unmapBytes(old)
	}
	m.s = unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// bytes returns the mapped memory.
func (m *Mapped[T]) bytes() []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m.s))), len(m.s)*int(unsafe.Sizeof(zero)))
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
		unmapBytes(m.bytes())
	}
	m.s = nil
}
