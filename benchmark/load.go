package main

// The closed-loop load driver: one goroutine per connection, each sending a
// pipelined batch and waiting for every reply before the next (cache callers
// wait for their answer). No pamakv/internal import (see gen.go).

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// opTimeout bounds one round trip; a server that stalls longer has failed.
const opTimeout = 20 * time.Second

// loadConn is one client connection with its stream, buffers and tallies.
type loadConn struct {
	s      *stream
	conn   net.Conn
	rr     *replyReader
	out    []byte
	pend   []op
	keyBuf []byte

	attempted, failed uint64
	gets              uint64 // GETs sent

	// How far the set-up has come (see warmUp).
	preloads  uint32
	preloaded bool
	warmed    int
}

// dialLoad opens the workload's connections to addr.
func dialLoad(sp *spec, addr string, seed uint64) ([]*loadConn, error) {
	lcs := make([]*loadConn, 0, sp.conns)
	for i := 0; i < sp.conns; i++ {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			closeLoad(lcs)
			return nil, err
		}
		lcs = append(lcs, &loadConn{
			s:      newStream(sp, i, seed),
			conn:   c,
			rr:     newReplyReader(c),
			out:    make([]byte, 0, 64<<10),
			pend:   make([]op, 0, 64),
			keyBuf: make([]byte, 0, 16),
		})
	}
	return lcs, nil
}

func closeLoad(lcs []*loadConn) {
	for _, lc := range lcs {
		lc.conn.Close()
	}
}

// roundTrip sends the pending batch and checks every reply. A returned error
// means the connection is unusable; the unanswered requests count as failed.
func (lc *loadConn) roundTrip() error {
	lc.out = lc.out[:0]
	for _, o := range lc.pend {
		lc.out = lc.s.appendRequest(lc.out, o)
	}
	lc.attempted += uint64(len(lc.pend))
	if err := lc.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		lc.failed += uint64(len(lc.pend))
		return err
	}
	if _, err := lc.conn.Write(lc.out); err != nil {
		lc.failed += uint64(len(lc.pend))
		return err
	}
	for i, o := range lc.pend {
		ok, _, err := lc.s.check(lc.rr, o, lc.keyBuf)
		if err != nil {
			lc.failed += uint64(len(lc.pend) - i)
			return fmt.Errorf("request %d of a batch of %d: %w", i, len(lc.pend), err)
		}
		if !ok {
			lc.failed++
		}
		if o.kind == opGet {
			lc.gets++
		}
	}
	return nil
}

// warmUp continues this connection's part of the set-up (one SET per hot key
// of its share when the workload preloads, then sp.warmOps requests of its
// stream, all at sp.warmDepth) until it is complete or the deadline passes,
// and reports whether it is complete. A zero deadline never passes.
func (lc *loadConn) warmUp(deadline time.Time) (done bool, err error) {
	sp := lc.s.sp
	for {
		if (lc.preloaded || !sp.preload) && lc.warmed >= sp.warmOps {
			return true, nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return false, nil
		}
		lc.pend = lc.pend[:0]
		for sp.preload && !lc.preloaded && len(lc.pend) < sp.warmDepth {
			o, ok := lc.s.preloadOp(lc.preloads)
			if !ok {
				lc.preloaded = true
				break
			}
			lc.preloads++
			lc.pend = append(lc.pend, o)
		}
		if len(lc.pend) == 0 { // preloading is over, or there is none
			for n := min(sp.warmDepth, sp.warmOps-lc.warmed); len(lc.pend) < n; {
				lc.pend = append(lc.pend, lc.s.next())
			}
			lc.warmed += len(lc.pend)
		}
		if len(lc.pend) == 0 {
			continue // the preload ended exactly on a batch and nothing is left to warm
		}
		if err := lc.roundTrip(); err != nil {
			return false, err
		}
	}
}

// run drives the stream at the given depth until the deadline passes. Round
// trips are recorded in rec when it is non-nil, as offsets from start, and
// opened as root spans in tr when it is non-nil.
func (lc *loadConn) run(depth int, start, deadline time.Time, rec *recorder, tr *tracer) error {
	for {
		if !time.Now().Before(deadline) {
			return nil
		}
		lc.pend = lc.pend[:0]
		for i := 0; i < depth; i++ {
			lc.pend = append(lc.pend, lc.s.next())
		}
		t0 := time.Now() // a round trip begins once the requests are drawn
		var rq ref
		if tr != nil {
			rq, t0 = tr.beginRequest()
		}
		if err := lc.roundTrip(); err != nil {
			return err
		}
		t1 := time.Now()
		if tr != nil {
			tr.endRequest(rq, t0)
		}
		if rec != nil {
			rec.add(t1.Sub(start), t1.Sub(t0))
		}
	}
}

// each runs f on every connection concurrently and returns the first error.
func each(lcs []*loadConn, f func(i int, lc *loadConn) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lcs))
	for i, lc := range lcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, lc)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
	}
	return nil
}

// tally sums the per-connection counters.
func tally(lcs []*loadConn) (attempted, failed, gets uint64) {
	for _, lc := range lcs {
		attempted += lc.attempted
		failed += lc.failed
		gets += lc.gets
	}
	return
}
