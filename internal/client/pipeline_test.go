package client_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamakv/internal/client"
	"pamakv/internal/cluster"
	"pamakv/internal/proto"
	"pamakv/internal/server"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPoolRestartNoLostWrites hammers one server from N goroutines running
// pipelined mixed ops, bounces the server mid-test (same engine, same
// address), and then verifies every acknowledged write is still readable:
// errors during the bounce are expected, silently lost acks are not. Run
// under -race this also exercises the shared transport's concurrency.
func TestPoolRestartNoLostWrites(t *testing.T) {
	engine := newCache(t)
	addr, stop := startServerOn(t, "127.0.0.1:0", engine, server.Options{})

	base := runtime.NumGoroutine()
	c := newClient(t, client.Config{
		Addrs:    []string{addr},
		PoolSize: 8,
		Retries:  -1, // strict: a batch the bounce cut is reported, never replayed
	})

	const (
		workers = 8
		rounds  = 60
		batch   = 16
	)
	acked := make([]map[string]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make(map[string]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := c.Pipeline()
			for r := 0; r < rounds; r++ {
				type queued struct{ key, val string }
				var sets []queued
				for b := 0; b < batch; b++ {
					key := fmt.Sprintf("w%d.r%d.b%d", w, r, b)
					if b%4 == 3 {
						p.Get(key) // mixes reads into the batch
						continue
					}
					val := fmt.Sprintf("v%d.%d.%d", w, r, b)
					p.Set(key, uint32(w), 0, []byte(val))
					sets = append(sets, queued{key, val})
				}
				results, err := p.Exec()
				if err != nil {
					t.Errorf("worker %d: Exec: %v", w, err)
					return
				}
				// Walk results in queue order, pairing set slots with their
				// queued keys (gets occupy the b%4==3 slots).
				si, ri := 0, 0
				for b := 0; b < batch; b++ {
					if b%4 == 3 {
						ri++
						continue
					}
					if results[ri].Err == nil {
						acked[w][sets[si].key] = sets[si].val
					}
					si++
					ri++
				}
				if r == rounds/2 && w == 0 {
					// Bounce the server mid-test from one worker; the
					// others keep hammering through the outage.
					stop()
					_, _ = startServerOn(t, addr, engine, server.Options{})
				}
			}
		}(w)
	}
	wg.Wait()

	// Every acknowledged write must be present with its exact value.
	verify := newClient(t, client.Config{Addrs: []string{addr}})
	total, lost := 0, 0
	for w := range acked {
		for key, val := range acked[w] {
			total++
			it, err := verify.Get(key)
			if err != nil || string(it.Value) != val {
				lost++
				if lost <= 5 {
					t.Errorf("acked write lost: %s (want %q, got %q, err %v)", key, val, it.Value, err)
				}
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged writes lost across restart", lost, total)
	}
	if total == 0 {
		t.Fatal("no writes acknowledged; test proved nothing")
	}

	// No goroutine leaks: closing the clients leaves us at (or below) the
	// pre-client baseline.
	c.Close()
	verify.Close()
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base
	})
}

// shedEvery starts a fake server that answers storage commands with STORED
// except every nth op, which it sheds with SERVER_ERROR busy (shed) — the
// overload controller's mid-pipeline refusal, scripted deterministically.
func shedEvery(t *testing.T, n int) string {
	t.Helper()
	var ops atomic.Int32
	return scriptedServer(t, func(cmd *proto.Command) []byte {
		switch {
		case cmd.Name == "get":
			return proto.AppendEnd(nil)
		case cmd.Name != "set":
			return proto.AppendLine(nil, "ERROR")
		case int(ops.Add(1))%n == 0:
			return proto.AppendShed(nil)
		}
		return proto.AppendLine(nil, "STORED")
	})
}

// TestPipelineShedMidBatch scripts an overloaded server that sheds every
// third write and checks the pipeline keeps its framing: shed slots carry
// ErrServerBusy, every other slot completes, and the connection survives
// for the next batch.
func TestPipelineShedMidBatch(t *testing.T) {
	addr := shedEvery(t, 3)
	c := newClient(t, client.Config{Addrs: []string{addr}})
	p := c.Pipeline()
	for round := 0; round < 3; round++ {
		const n = 9
		for i := 0; i < n; i++ {
			p.Set(fmt.Sprintf("k%d", i), 0, 0, []byte("v"))
		}
		results, err := p.Exec()
		if err != nil {
			t.Fatal(err)
		}
		shed := 0
		for i, r := range results {
			if errors.Is(r.Err, client.ErrServerBusy) {
				shed++
			} else if r.Err != nil {
				t.Fatalf("round %d slot %d: unexpected %v", round, i, r.Err)
			}
		}
		if shed != n/3 {
			t.Fatalf("round %d: %d shed slots, want %d", round, shed, n/3)
		}
	}
	// One connection served all three batches: sheds are responses, not
	// transport failures.
	if dials := c.Stats().Dials; dials != 1 {
		t.Fatalf("sheds forced %d dials, want 1", dials)
	}
}

// scriptedServer starts a fake server that hands every parsed command to
// reply and writes back what it returns; a nil reply closes the connection.
func scriptedServer(t *testing.T, reply func(cmd *proto.Command) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				p := proto.NewParser(bufio.NewReaderSize(nc, 1<<14))
				for {
					cmd, err := p.ReadCommand()
					if err != nil {
						return
					}
					out := reply(cmd)
					if out == nil {
						return
					}
					if _, err := nc.Write(out); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// keysByOwner returns, for each member of a ring over addrs, n keys it owns.
func keysByOwner(t *testing.T, addrs []string, n int) map[string][]string {
	t.Helper()
	ring := cluster.NewRing(addrs, 0)
	out := make(map[string][]string)
	for i := 0; len(out[addrs[0]]) < n || len(out[addrs[1]]) < n; i++ {
		k := fmt.Sprintf("key%d", i)
		if o := ring.Owner(k); len(out[o]) < n {
			out[o] = append(out[o], k)
		}
	}
	return out
}

// TestShardedExecOverlapsOwners: a two-owner batch is on both wires before
// either reply is awaited. Each fake owner withholds its answer until the
// other has received its request, so an Exec that finishes one owner before
// it starts the next can only time that owner out.
func TestShardedExecOverlapsOwners(t *testing.T) {
	var received [2]chan struct{}
	var once [2]sync.Once
	var addrs [2]string
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	for i := range addrs {
		received[i] = make(chan struct{})
		addrs[i] = scriptedServer(t, func(*proto.Command) []byte {
			once[i].Do(func() { close(received[i]) })
			select {
			case <-received[1-i]:
			case <-done:
			}
			return proto.AppendEnd(nil)
		})
	}
	c := newClient(t, client.Config{Addrs: addrs[:], OpTimeout: 500 * time.Millisecond, Retries: -1})
	p := c.Pipeline()
	for _, keys := range keysByOwner(t, addrs[:], 1) {
		p.Get(keys[0])
	}
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, client.ErrCacheMiss) {
			t.Errorf("op %d: %v, want a miss answered while the other owner's request was in flight", i, r.Err)
		}
	}
}

// TestPipelineBrokenConnectionKeepsPrefix: a server that answers two
// operations of a batch and then drops the connection leaves those two with
// their replies and the rest with the transport error; nothing is replayed,
// and Exec itself does not fail.
func TestPipelineBrokenConnectionKeepsPrefix(t *testing.T) {
	var sets atomic.Int32
	addr := scriptedServer(t, func(cmd *proto.Command) []byte {
		if sets.Add(1) > 2 {
			return nil
		}
		return proto.AppendLine(nil, "STORED")
	})
	c := newClient(t, client.Config{Addrs: []string{addr}, Retries: 2})
	p := c.Pipeline()
	const n = 5
	for i := 0; i < n; i++ {
		p.Set(fmt.Sprintf("k%d", i), 0, 0, []byte("v"))
	}
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if answered := i < 2; answered != (r.Err == nil) {
			t.Errorf("op %d: err = %v, want answered = %v", i, r.Err, answered)
		}
	}
	if got := sets.Load(); got != 3 {
		t.Errorf("server saw %d commands, want 3 (two answered, one cut, none replayed)", got)
	}
}

// TestPipelineBreakerFailsOnlyItsMember: once a dead member's circuit is
// open its operations fail fast with cluster.ErrPeerDown, in their own
// slots; the live member's operations in the same batches keep succeeding
// and Exec never returns an error.
func TestPipelineBreakerFailsOnlyItsMember(t *testing.T) {
	live := startServer(t, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	addrs := []string{live, dead}
	c := newClient(t, client.Config{Addrs: addrs, Retries: -1})
	keys := keysByOwner(t, addrs, 2)
	p := c.Pipeline()
	fastFailed := false
	for round := 0; round <= cluster.DefaultBreakerThreshold && !fastFailed; round++ {
		for _, k := range append(keys[live], keys[dead]...) {
			p.Set(k, 0, 0, []byte("v"))
		}
		results, err := p.Exec()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if onLive := i < len(keys[live]); onLive != (r.Err == nil) {
				t.Fatalf("round %d op %d: err = %v, want success = %v", round, i, r.Err, onLive)
			}
		}
		fastFailed = errors.Is(results[len(results)-1].Err, cluster.ErrPeerDown)
	}
	if !fastFailed {
		t.Fatal("the dead member's circuit never opened")
	}
}
