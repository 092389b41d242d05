package main

// Child-process hygiene: the server under test runs as a child so that its
// CPU time and memory can be read from /proc, and no child may outlive the
// benchmark on any exit path. An orphaned pama-server keeps its port, and
// every later run then measures nothing.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tail keeps the last bytes written to it: the child's stderr, printed when
// a run fails.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one running pama-server, or the reference server.
type child struct {
	cmd    *exec.Cmd
	addr   string // data port
	admin  string // HTTP admin port; the reference server has none
	stderr *tail
	exited chan struct{} // closed once Wait has returned
}

// children is every child not yet reaped, so that a signal or a panic can
// kill them all.
var children = struct {
	mu   sync.Mutex
	live map[*child]struct{}
}{live: map[*child]struct{}{}}

// killChildren kills and reaps every live child. Safe to call repeatedly.
func killChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.stop(0)
	}
}

// killChildrenOnSignal makes SIGINT, SIGTERM and SIGHUP kill the children
// before the benchmark exits non-zero.
func killChildrenOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigc
		killChildren()
		fmt.Fprintf(os.Stderr, "benchmark: %v: children killed\n", s)
		os.Exit(130)
	}()
}

// freeAddr picks a loopback port by listening on port 0 and closing.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

const (
	spawnAttempts = 3
	readyTimeout  = 10 * time.Second
)

// spawnServers starts n servers of bin on fresh loopback ports and waits
// until every port accepts connections. With n > 1 the servers form a
// cluster: each gets -peers with all data addresses and itself as -self. A
// bind race (another process took a port between freeAddr and the child's
// listen) is retried on new ports.
func spawnServers(pl *placement, bin string, n int, extra ...string) ([]*child, error) {
	var lastErr error
attempts:
	for attempt := 0; attempt < spawnAttempts; attempt++ {
		addrs := make([]string, n)
		for i := range addrs {
			var err error
			if addrs[i], err = freeAddr(); err != nil {
				return nil, err
			}
		}
		var cs []*child
		for _, a := range addrs {
			args := extra
			if n > 1 {
				args = append(args[:len(args):len(args)], "-peers", strings.Join(addrs, ","), "-self", a)
			}
			admin, err := freeAddr()
			if err != nil {
				return nil, err
			}
			c, err := startChild(pl, bin, a, admin, append([]string{"-addr", a, "-admin-addr", admin}, args...))
			if err != nil {
				for _, c := range cs {
					c.stop(0)
				}
				lastErr = err
				continue attempts
			}
			cs = append(cs, c)
		}
		return cs, nil
	}
	return nil, fmt.Errorf("after %d attempts: %w", spawnAttempts, lastErr)
}

// startChild runs bin with args on the server's CPUs and waits until addr
// and, when there is one, admin accept connections.
func startChild(pl *placement, bin, addr, admin string, args []string) (*child, error) {
	c := &child{addr: addr, admin: admin, stderr: &tail{}, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = c.stderr
	// Pdeathsig covers the exit paths that run no Go code (SIGKILL of the
	// benchmark, a fatal runtime error). It fires when the forking thread
	// exits, so children are only started from the main goroutine, which
	// init locks to the main thread.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := pl.onServerCPUs(c.cmd.Start); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	children.mu.Lock()
	children.live[c] = struct{}{}
	children.mu.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child carries no news
		close(c.exited)
	}()
	deadline := time.Now().Add(readyTimeout)
	for _, a := range []string{addr, admin} {
		for a != "" {
			conn, err := net.DialTimeout("tcp", a, 200*time.Millisecond)
			if err == nil {
				conn.Close()
				break
			}
			select {
			case <-c.exited:
				c.stop(0)
				return nil, fmt.Errorf("server exited before %s was ready; its last stderr:\n%s", a, c.stderr)
			default:
			}
			if time.Now().After(deadline) {
				c.stop(0)
				return nil, fmt.Errorf("server not ready on %s after %v; its last stderr:\n%s", a, readyTimeout, c.stderr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return c, nil
}

// stop ends the child and waits for it: SIGTERM with grace to exit, then
// SIGKILL. grace 0 kills at once.
func (c *child) stop(grace time.Duration) {
	if grace > 0 {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
		select {
		case <-c.exited:
		case <-time.After(grace):
		}
	}
	_ = c.cmd.Process.Kill() // fails only if already gone
	<-c.exited
	children.mu.Lock()
	delete(children.live, c)
	children.mu.Unlock()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 for /proc on
// every architecture Go supports.
const clockTick = 100

// cpuTicks returns utime+stime of pid from /proc/<pid>/stat.
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("unreadable /proc stat times")
	}
	return ut + st, nil
}

// rssPeakMiB returns VmHWM of pid in MiB.
func rssPeakMiB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
