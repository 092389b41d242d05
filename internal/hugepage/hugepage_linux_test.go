package hugepage

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// mapping is one block of /proc/self/smaps.
type mapping struct {
	span
	flags    []string // VmFlags
	hugeAnon uint64   // AnonHugePages, bytes
}

func readSmaps(t *testing.T) []mapping {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	var ms []mapping
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "VmFlags:":
			ms[len(ms)-1].flags = f[1:]
		case f[0] == "AnonHugePages:":
			kb, _ := strconv.ParseUint(f[1], 10, 64)
			ms[len(ms)-1].hugeAnon = kb << 10
		case strings.Contains(f[0], "-") && !strings.HasSuffix(f[0], ":"):
			lo, hi, _ := strings.Cut(f[0], "-")
			s, _ := strconv.ParseUint(lo, 16, 64)
			e, _ := strconv.ParseUint(hi, 16, 64)
			ms = append(ms, mapping{span: span{s, e}})
		}
	}
	return ms
}

func holding(t *testing.T, ms []mapping, p unsafe.Pointer) mapping {
	t.Helper()
	a := uint64(uintptr(p))
	for _, m := range ms {
		if m.lo <= a && a < m.hi {
			return m
		}
	}
	t.Fatalf("no mapping holds %#x", a)
	return mapping{}
}

// TestAdviseHeapOnly: after Advise, the mapping holding a fresh 8 MiB heap
// allocation carries the huge-page advice, and a thread-stack-shaped
// anonymous mapping outside the heap does not, nor does any other mapping
// outside the heap range.
func TestAdviseHeapOnly(t *testing.T) {
	if !thpAvailable() {
		t.Skip("transparent huge pages absent or disabled")
	}
	buf := make([]byte, 8<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	// What pthread_create maps for a C thread's stack: private, anonymous,
	// read-write, placed by the kernel.
	stack, err := syscall.Mmap(-1, 0, 8<<20, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_STACK)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(stack)
	stack[len(stack)-1] = 1

	var a Advisor
	if err := a.Advise(); err != nil {
		t.Fatal(err)
	}
	ms := readSmaps(t)
	if m := holding(t, ms, unsafe.Pointer(&buf[0])); !slices.Contains(m.flags, "hg") {
		t.Errorf("heap mapping %#x-%#x not advised: VmFlags %v", m.lo, m.hi, m.flags)
	} else if m.hugeAnon > 0 && AnonBytes() < m.hugeAnon {
		t.Errorf("AnonBytes %d below the heap mapping's own %d", AnonBytes(), m.hugeAnon)
	}
	if m := holding(t, ms, unsafe.Pointer(&stack[0])); slices.Contains(m.flags, "hg") {
		t.Errorf("stack mapping %#x-%#x advised", m.lo, m.hi)
	}
	// The runtime's first arena hint range, stated apart from heapLo and
	// heapHi so that widening those fails here.
	const arenaLo, arenaHi = 0x00c0 << 32, 0x01c0 << 32
	for _, m := range ms {
		if slices.Contains(m.flags, "hg") && (m.lo < arenaLo || m.hi > arenaHi) {
			t.Errorf("mapping %#x-%#x outside the heap range advised", m.lo, m.hi)
		}
	}
	runtime.KeepAlive(buf)
}

// TestAdvisorRecord: a mapping is advised once, including after the kernel
// has merged advised neighbours into one mapping, and only anonymous private
// read-write mappings inside the heap range are candidates.
func TestAdvisorRecord(t *testing.T) {
	maps := strings.Join([]string{
		"00400000-0072d000 r-xp 00000000 fe:00 16269473   /usr/bin/pama-server",
		"c000000000-c000400000 rw-p 00000000 00:00 0",
		"c000400000-c000800000 rw-p 00000000 00:00 0",
		"c000800000-c004000000 ---p 00000000 00:00 0",
		"7fb11efff000-7fb11f7ff000 rw-p 00000000 00:00 0",
		"7ffe70ddd000-7ffe70dfe000 rw-p 00000000 00:00 0          [stack]",
	}, "\n")
	got := heapMappings(maps)
	want := []span{{0xc000000000, 0xc000400000}, {0xc000400000, 0xc000800000}}
	if !slices.Equal(got, want) {
		t.Fatalf("heapMappings = %x, want %x", got, want)
	}
	var a Advisor
	a.add(want[1])
	a.add(want[0])
	a.add(span{0xc001000000, 0xc001200000})
	if len(a.done) != 2 {
		t.Fatalf("record %x, want the adjacent ranges merged", a.done)
	}
	for _, m := range []span{{0xc000000000, 0xc000800000}, {0xc000200000, 0xc000400000}} {
		if !a.covered(m) {
			t.Errorf("%x not covered by %x", m, a.done)
		}
	}
	for _, m := range []span{{0xc000000000, 0xc001200000}, {0xc000800000, 0xc001000000}} {
		if a.covered(m) {
			t.Errorf("%x covered by %x", m, a.done)
		}
	}
}
