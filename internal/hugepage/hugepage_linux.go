// Package hugepage asks the kernel to back the Go heap with transparent huge
// pages, as Memcached's -L backs its slabs with large pages. A cache's work is
// dependent loads scattered over a large heap; on 4 KiB pages each of those
// misses also pays a page walk (a nested one in a virtual machine), on 2 MiB
// pages the walk mostly hits the TLB.
//
// Only a process's owner should call it: page policy is a property of the
// process, not of a library linked into it. Where the kernel's THP mode is
// "always" the advice is redundant; where it is "never" it is not given. On
// platforms other than Linux every call is a no-op.
package hugepage

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// heapLo and heapHi bound the Go heap on 64-bit Linux. The runtime maps its
// arenas upward from its first arena hint, 0x00c0<<32 (runtime/malloc.go),
// and nothing else maps there: C thread stacks and the runtime's sparse
// metadata reservations sit near the top of the address space, where the
// kernel places unhinted mappings. Advising those would inflate RSS, since a
// collapse fills a whole 2 MiB page however little of it was touched.
const (
	heapLo uint64 = 0x00c0 << 32
	heapHi uint64 = 0x01c0 << 32
)

// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall lacks.
const madvCollapse = 25

const (
	mapsPath    = "/proc/self/maps"
	rollupPath  = "/proc/self/smaps_rollup"
	thpModePath = "/sys/kernel/mm/transparent_hugepage/enabled"
)

// span is the address range [lo, hi).
type span struct{ lo, hi uint64 }

// Advisor advises each heap mapping once. The zero value is ready to use; an
// Advisor is not safe for concurrent use.
type Advisor struct {
	done []span // advised ranges: sorted, disjoint, never adjacent
}

// Advise gives every anonymous read-write heap mapping it has not advised yet
// MADV_HUGEPAGE, so that faults and khugepaged fill it with huge pages, then
// MADV_COLLAPSE, so that what is already resident is collapsed now. Each heap
// extension the runtime maps is a new mapping without the advice, so a
// long-lived process calls Advise periodically (Start).
//
// A range is advised once: collapsing it again would refill the pages the
// runtime's scavenger has since returned to the kernel.
func (a *Advisor) Advise() error {
	if !thpAvailable() {
		return nil
	}
	maps, err := os.ReadFile(mapsPath)
	if err != nil {
		return err
	}
	for _, m := range heapMappings(string(maps)) {
		if a.covered(m) {
			continue
		}
		// Errors are ignored: MADV_HUGEPAGE fails only on a kernel without
		// THP, and MADV_COLLAPSE before Linux 6.1 or when no huge page can
		// be had right now, in which case khugepaged collapses the range
		// later on the strength of the first advice.
		madvise(m, syscall.MADV_HUGEPAGE)
		madvise(m, madvCollapse)
		a.add(m)
	}
	return nil
}

func madvise(m span, advice uintptr) {
	syscall.Syscall(syscall.SYS_MADVISE, uintptr(m.lo), uintptr(m.hi-m.lo), advice)
}

// covered reports whether m lies inside one advised range. Advised mappings
// the kernel merged into one show up as one mapping, which the merged record
// still covers.
func (a *Advisor) covered(m span) bool {
	for _, d := range a.done {
		if d.lo <= m.lo && m.hi <= d.hi {
			return true
		}
	}
	return false
}

// add records m as advised, keeping done sorted and merged.
func (a *Advisor) add(m span) {
	a.done = append(a.done, m)
	slices.SortFunc(a.done, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
	merged := a.done[:1]
	for _, d := range a.done[1:] {
		if last := &merged[len(merged)-1]; d.lo <= last.hi {
			last.hi = max(last.hi, d.hi)
		} else {
			merged = append(merged, d)
		}
	}
	a.done = merged
}

// heapMappings returns the anonymous, private read-write mappings of a
// /proc/<pid>/maps listing that lie inside the heap range.
func heapMappings(maps string) []span {
	var out []span
	for _, line := range strings.Split(maps, "\n") {
		// start-end perms offset dev inode [path]
		f := strings.Fields(line)
		if len(f) != 5 || f[1] != "rw-p" || f[4] != "0" {
			continue
		}
		lo, hi, ok := strings.Cut(f[0], "-")
		if !ok {
			continue
		}
		s, err1 := strconv.ParseUint(lo, 16, 64)
		e, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil || s < heapLo || e > heapHi {
			continue
		}
		out = append(out, span{s, e})
	}
	return out
}

// thpAvailable reports whether the kernel has transparent huge pages and the
// administrator has not turned them off.
func thpAvailable() bool {
	mode, err := os.ReadFile(thpModePath)
	return err == nil && !strings.Contains(string(mode), "[never]")
}

// Start advises the heap now and then every interval until stop is called;
// stop returns once the advising goroutine has exited. An error from the
// first round is returned and no goroutine is started; later rounds read
// the same file and their errors are dropped.
func Start(every time.Duration) (stop func(), err error) {
	var a Advisor
	if err := a.Advise(); err != nil {
		return nil, fmt.Errorf("hugepage: %w", err)
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				_ = a.Advise()
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
	}, nil
}

// AnonBytes returns the process's anonymous memory mapped by huge pages
// (AnonHugePages in /proc/self/smaps_rollup), or 0 when it cannot be read.
func AnonBytes() uint64 {
	b, err := os.ReadFile(rollupPath)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		// AnonHugePages:    178176 kB
		if f := strings.Fields(line); len(f) == 3 && f[0] == "AnonHugePages:" {
			kb, _ := strconv.ParseUint(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}
