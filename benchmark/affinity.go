package main

// CPU placement. On a small machine the kernel moves the generator's and the
// server's threads between cores every few seconds, and throughput follows
// (one-second slices of an unpinned get_hot run ranged 476k-796k ops/s here).
// The outside-in run therefore gives the server CPU 0 and the generator every
// other CPU: the load generator does not share a core with the server, and
// the server's numbers are those of one core.

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int) { s[cpu/64] |= 1 << (uint(cpu) % 64) }

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(uint(cpu)%64)) != 0 }

func (s *cpuSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

func setAffinity(tid int, s cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return e
	}
	return nil
}

// placement is how the CPUs this process may use are divided. With fewer
// than two, nothing is pinned.
type placement struct {
	all, server, generator cpuSet
	pinned                 bool
}

// place reads the CPUs available to this process and gives the first to the
// server and the rest to the generator.
func place() placement {
	var p placement
	all, err := getAffinity(0)
	if err != nil || all.count() < 2 {
		return p
	}
	p.all = all
	first := true
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if !all.has(cpu) {
			continue
		}
		if first {
			p.server.add(cpu)
			first = false
		} else {
			p.generator.add(cpu)
		}
	}
	p.pinned = true
	return p
}

// setAllThreads applies s to every thread of this process. Threads created
// later inherit the mask of the thread that creates them.
func setAllThreads(s cpuSet) error {
	for pass := 0; pass < 2; pass++ { // a second pass catches threads born during the first
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, s); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	return nil
}

// pinGenerator moves this process onto the generator's CPUs and returns the
// function that undoes it. A machine that refuses is measured unpinned.
func (p *placement) pinGenerator() (unpin func()) {
	if !p.pinned {
		return func() {}
	}
	if err := setAllThreads(p.generator); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: cannot pin CPUs (%v); measuring unpinned\n", err)
		p.pinned = false
		_ = setAllThreads(p.all) // best effort: undo a partial pinning
		return func() {}
	}
	// One running thread per CPU: with more, the kernel time-slices the
	// connections' goroutines against each other in milliseconds, and the
	// latency tail measures its scheduler.
	procs := runtime.GOMAXPROCS(p.generator.count())
	return func() {
		runtime.GOMAXPROCS(procs)
		_ = setAllThreads(p.all) // fails only if pinning did, which was reported
	}
}

// onServerCPUs runs start, which forks a child, with the calling thread on
// the server's CPUs, so that the child and all its threads inherit them.
func (p *placement) onServerCPUs(start func() error) error {
	if !p.pinned {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	prev, err := getAffinity(0)
	if err == nil {
		err = setAffinity(0, p.server)
	}
	if err != nil {
		return start() // unpinned child: still a valid run, noisier
	}
	defer func() { _ = setAffinity(0, prev) }() // restoring a mask just read cannot fail
	return start()
}
