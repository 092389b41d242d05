//go:build !linux

// Package hugepage asks the kernel to back the Go heap with transparent huge
// pages. Transparent huge pages are a Linux facility: on this platform every
// call is a no-op.
package hugepage

import "time"

// Advisor advises nothing on this platform.
type Advisor struct{}

// Advise advises nothing.
func (*Advisor) Advise() error { return nil }

// Start starts nothing; stop returns at once.
func Start(time.Duration) (stop func(), err error) { return func() {}, nil }

// AnonBytes returns 0: the platform reports no huge-page-backed memory.
func AnonBytes() uint64 { return 0 }
