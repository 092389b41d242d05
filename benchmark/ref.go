package main

// The reference server: a frozen, minimal memcached-text server (get and set
// over a map) that the benchmark runs beside the server under test and drives
// in alternation with it. The sandbox's speed changes by tens of percent, from
// one second to the next and over minutes, with nothing showing in
// /proc/stat. The reference does the same kind of work as the server under
// test (the workload's own mix of GETs and SETs and its value sizes, over
// loopback sockets, on the same two CPUs) with code that never changes, so
// what it achieves measures the host, and every timing of the server under
// test is reported as it would be on a host where the reference runs at its
// nominal speed. No pamakv/internal import (see gen.go).

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"time"
)

// The measured phase alternates short bursts: the reference, the server
// under test, the reference, ... The host's speed changes within a second, so
// the two must be read within tens of milliseconds of each other. sliceBursts
// rounds make one slice: one second on the server under test and half a
// second on the reference.
const (
	sutBurst    = 50 * time.Millisecond
	refBurst    = 25 * time.Millisecond
	sliceBursts = int(time.Second / sutBurst)
)

// refKeys is the reference's key space: small enough to preload in a moment.
const refKeys = 10_000

// refWork is how many times the reference server carries out each request
// (all results but one are thrown away). Every workload is limited by the
// server's CPU, not the generator's, and the two CPUs change speed
// independently; the extra work makes the reference server-bound too, so that
// its throughput follows the CPU the server under test runs on.
const refWork = 3

// refNominal is what the reference achieves for each workload on the host the
// benchmark was defined on, in a quiet minute: operations per second, the
// reference server's CPU time per operation, and the median round trip, both
// in microseconds. They only fix the scale of the
// reported numbers (a host at nominal speed reports what it measures), so
// they are frozen with the benchmark.
var refNominal = map[string]struct{ opsPerS, cpuUS, p50US float64 }{
	"get_hot":         {700_000, 1.00, 80},
	"set_churn":       {500_000, 1.35, 100},
	"etc_readthrough": {30_000, 17.5, 58},
	"cluster_forward": {450_000, 1.45, 60},
}

// refSpec is the traffic the reference gets for workload sp: as many
// connections, the same depth, share of SETs and value sizes, over refKeys
// keys that all stay resident (the reference never evicts), so that it moves
// as many bytes and crosses the sockets as often as the workload does.
func refSpec(sp *spec) *spec {
	return &spec{
		name: sp.name, conns: sp.conns, depth: sp.depth,
		keys: refKeys, partitioned: true, setFrac: sp.setFrac,
		sizes: sp.sizes, values: valueVersioned,
		preload: true, warmOps: 10_000, warmDepth: sp.depth,
	}
}

// sutSlice sums one slice's bursts: what the server under test did and what
// /proc reported around its bursts, and what the reference did in between.
type sutSlice struct {
	ops          float64
	time         time.Duration
	genCPU       time.Duration // the generator's own CPU time
	steal, total uint64        // machine-wide jiffies: stolen by the hypervisor, and all
	node         []uint64      // utime+stime ticks of each child
	ref          refBurstResult
}

// refBurstResult is what the reference did in one or more bursts.
type refBurstResult struct {
	ops   float64
	time  time.Duration
	ticks uint64 // the reference server's utime+stime
}

func (a *refBurstResult) add(b refBurstResult) {
	a.ops += b.ops
	a.time += b.time
	a.ticks += b.ticks
}

// reference is the running reference server and the connections driving it.
type reference struct {
	c    *child
	sp   *spec
	lcs  []*loadConn
	recs []*recorder // round trips of the measured phase's bursts, once set
}

// startReference spawns this executable as the reference server on the
// server's CPUs, and preloads and warms it.
func startReference(pl *placement, sp *spec, seed uint64) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < spawnAttempts; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := startChild(pl, self, addr, "", []string{"-ref-serve", addr})
		if err != nil {
			lastErr = err
			continue
		}
		r := &reference{c: c, sp: refSpec(sp)}
		if r.lcs, err = dialLoad(r.sp, addr, seed); err == nil {
			_, err = warm(r.lcs, time.Time{})
		}
		if err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("after %d attempts: %w", spawnAttempts, lastErr)
}

func (r *reference) close() {
	closeLoad(r.lcs)
	r.c.stop(0)
}

// burst drives the reference for d, recording round trips in r.recs, when
// set, on the given clock (see recorder). A wrong answer from the reference is a bug in the benchmark
// and fails the run.
func (r *reference) burst(d time.Duration, clock time.Time) (res refBurstResult, err error) {
	a0, f0, _ := tally(r.lcs)
	c0, err := cpuTicks(r.c.pid())
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	err = each(r.lcs, func(i int, lc *loadConn) error {
		var rec *recorder
		if r.recs != nil {
			rec = r.recs[i]
		}
		return lc.run(r.sp.depth, clock, t0.Add(d), rec, nil)
	})
	res.time = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("reference server: %w", err)
	}
	c1, err := cpuTicks(r.c.pid())
	if err != nil {
		return res, err
	}
	a1, f1, _ := tally(r.lcs)
	if f1 != f0 {
		return res, fmt.Errorf("reference server answered %d requests wrongly", f1-f0)
	}
	res.ops, res.ticks = float64(a1-a0), c1-c0
	return res, nil
}

// speed is the host's speed as the reference's throughput in b shows it: 1
// on the nominal host, below 1 on a slower one. A time is brought to the
// nominal host by multiplying with it, a rate by dividing.
func (r *reference) speed(b refBurstResult) float64 {
	return ratio(b.ops, b.time.Seconds()) / refNominal[r.sp.name].opsPerS
}

// cpuSpeed is the speed of the server's CPU alone: the reference server's
// nominal CPU time per operation over the one it needed in b.
func (r *reference) cpuSpeed(b refBurstResult) float64 {
	if b.ticks == 0 {
		return 1 // a run too short to tell
	}
	return refNominal[r.sp.name].cpuUS / (float64(b.ticks) * 1e6 / clockTick / b.ops)
}

// rttSpeed is the host's speed as the reference's median round trip shows
// it. A host that stalls for milliseconds at a time loses throughput without
// lengthening the typical round trip, so rtt_p50_us is corrected with the
// reference's median, not with its throughput.
func (r *reference) rttSpeed(p50us float64) float64 {
	return ratio(refNominal[r.sp.name].p50US, p50us)
}

// refStore is the reference server's whole state.
type refStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// refServe listens on addr and serves until the process is killed.
func refServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	st := &refStore{m: map[string][]byte{}}
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go st.serve(c)
	}
}

// serve answers one connection: every buffered request is answered before
// the replies are flushed, as pama-server's batch loop does.
func (st *refStore) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var key, val, reply []byte
	for {
		if br.Buffered() == 0 {
			if bw.Flush() != nil {
				return
			}
		}
		l, err := br.ReadSlice('\n')
		if err != nil || len(l) < 2 {
			return
		}
		l = l[:len(l)-2]
		switch {
		case bytes.HasPrefix(l, []byte("get ")):
			key := l[4:] // valid until the next read
			for w := 0; w < refWork; w++ {
				reply = reply[:0]
				st.mu.RLock()
				if v, ok := st.m[string(key)]; ok {
					reply = append(reply, "VALUE "...)
					reply = append(reply, key...)
					reply = append(reply, " 0 "...)
					reply = strconv.AppendInt(reply, int64(len(v)), 10)
					reply = append(reply, '\r', '\n')
					reply = append(reply, v...)
					reply = append(reply, '\r', '\n')
				}
				st.mu.RUnlock()
			}
			bw.Write(reply)
			bw.WriteString("END\r\n")
		case bytes.HasPrefix(l, []byte("set ")):
			// "set <key> <flags> <exptime> <bytes>"; l is only valid until
			// the next read, so the key is copied out first.
			rest := l[4:]
			sp1, sp2 := bytes.IndexByte(rest, ' '), bytes.LastIndexByte(rest, ' ')
			if sp1 < 0 {
				return
			}
			n, err := strconv.Atoi(string(rest[sp2+1:]))
			if err != nil || n < 0 || n > 1<<20 {
				return
			}
			key = append(key[:0], rest[:sp1]...)
			if cap(val) < n+2 {
				val = make([]byte, n+2)
			}
			val = val[:n+2]
			if _, err := io.ReadFull(br, val); err != nil {
				return
			}
			for w := 0; w < refWork; w++ {
				st.mu.Lock()
				if old := st.m[string(key)]; len(old) == n && n > 0 {
					copy(old, val) // in place: no garbage once every key is stored
				} else {
					st.m[string(key)] = bytes.Clone(val[:n])
				}
				st.mu.Unlock()
			}
			bw.WriteString("STORED\r\n")
		default:
			bw.WriteString("ERROR\r\n")
		}
	}
}
