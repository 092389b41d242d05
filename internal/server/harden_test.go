package server

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
	"pamakv/internal/shard"
	"pamakv/internal/valuetable"
)

// startServerCfg is startServer with full control over the cache config.
func startServerCfg(t *testing.T, cfg cache.Config, opts Options) (*Server, string) {
	t.Helper()
	c, err := cache.New(cfg, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

func defaultCfg() cache.Config {
	return cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  1 << 22,
		StoreValues: true,
		WindowLen:   10_000,
	}
}

// TestPipelining sends a burst of requests in one write and expects all
// responses, served in fewer flushes than requests.
func TestPipelining(t *testing.T) {
	srv, addr := startServer(t, Options{MaxPipeline: 32})
	cl := dial(t, addr)

	var req strings.Builder
	const n = 20
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "set k%d 0 0 2\r\nv%d\r\n", i, i%10)
	}
	cl.send(t, req.String())
	for i := 0; i < n; i++ {
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("set %d -> %q", i, got)
		}
	}
	req.Reset()
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "get k%d\r\n", i)
	}
	cl.send(t, req.String())
	for i := 0; i < n; i++ {
		if got := cl.line(t); got != fmt.Sprintf("VALUE k%d 0 2", i) {
			t.Fatalf("get %d header -> %q", i, got)
		}
		cl.line(t) // body
		if got := cl.line(t); got != "END" {
			t.Fatalf("get %d end -> %q", i, got)
		}
	}
	st := srv.Stats()
	if st.BatchedCmds != 2*n {
		t.Fatalf("BatchedCmds = %d, want %d", st.BatchedCmds, 2*n)
	}
	// Each burst arrived in one loopback write; the server must have
	// coalesced at least some of it (strict request-reply would need 2n
	// flushes).
	if st.Batches >= st.BatchedCmds {
		t.Fatalf("no pipelining: %d batches for %d commands", st.Batches, st.BatchedCmds)
	}
}

// TestPipelineCapFlushes verifies MaxPipeline bounds a batch: a burst longer
// than the cap is split across multiple flushes but still fully served.
func TestPipelineCapFlushes(t *testing.T) {
	srv, addr := startServer(t, Options{MaxPipeline: 4})
	cl := dial(t, addr)
	var req strings.Builder
	const n = 10
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "version\r\n")
	}
	cl.send(t, req.String())
	for i := 0; i < n; i++ {
		if got := cl.line(t); !strings.HasPrefix(got, "VERSION") {
			t.Fatalf("version %d -> %q", i, got)
		}
	}
	if st := srv.Stats(); st.BatchedCmds != n {
		t.Fatalf("BatchedCmds = %d, want %d", st.BatchedCmds, n)
	}
}

// TestIdleTimeout verifies ReadTimeout reclaims idle connections.
func TestIdleTimeout(t *testing.T) {
	srv, addr := startServer(t, Options{ReadTimeout: 50 * time.Millisecond})
	cl := dial(t, addr)
	cl.send(t, "version\r\n")
	cl.line(t)
	// Stay silent past the deadline: the server must close the
	// connection.
	cl.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := cl.r.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read -> %v, want EOF", err)
	}
	if st := srv.Stats(); st.IdleTimeouts != 1 {
		t.Fatalf("IdleTimeouts = %d, want 1", st.IdleTimeouts)
	}
}

// TestIdleDeadlineRearmsPerSixteenth: the idle deadline is re-armed only
// once a sixteenth of ReadTimeout has passed since it was last armed, and
// still bounds each wait: requests 0.75 × ReadTimeout apart are served, and
// silence closes the connection within ReadTimeout of the last one, no
// sooner than 15/16 of it.
func TestIdleDeadlineRearmsPerSixteenth(t *testing.T) {
	const timeout = 400 * time.Millisecond
	srv, addr := startServer(t, Options{ReadTimeout: timeout})
	cl := dial(t, addr)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(timeout * 3 / 4)
		}
		cl.send(t, "version\r\n")
		cl.line(t)
	}
	last := time.Now()
	cl.conn.SetReadDeadline(time.Now().Add(5 * timeout))
	if _, err := cl.r.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read -> %v, want EOF", err)
	}
	if took := time.Since(last); took < timeout*15/16-10*time.Millisecond || took > timeout+150*time.Millisecond {
		t.Fatalf("idle connection closed %v after its last request, want between 15/16 and 1 × %v", took, timeout)
	}
	if st := srv.Stats(); st.IdleTimeouts != 1 {
		t.Fatalf("IdleTimeouts = %d, want 1", st.IdleTimeouts)
	}
}

// TestMaxConnsBackpressure verifies the accept loop holds excess
// connections in the kernel backlog until a slot frees.
func TestMaxConnsBackpressure(t *testing.T) {
	srv, addr := startServer(t, Options{MaxConns: 1})
	cl1 := dial(t, addr)
	cl1.send(t, "version\r\n")
	cl1.line(t)

	// The second dial succeeds at the TCP level but the server must not
	// serve it while cl1 holds the only slot.
	cl2 := dial(t, addr)
	cl2.send(t, "version\r\n")
	cl2.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := cl2.r.ReadByte(); err == nil {
		t.Fatal("second connection served past MaxConns=1")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("second connection read -> %v, want timeout", err)
	}

	// Freeing the slot lets the queued connection through; its buffered
	// request is then served.
	cl1.conn.Close()
	cl2.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := cl2.r.ReadString('\n'); err != nil || !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("queued connection -> %q, %v", got, err)
	}
	if st := srv.Stats(); st.Conns != 2 {
		t.Fatalf("Conns = %d, want 2", st.Conns)
	}
}

// TestGracefulDrain verifies Shutdown lets an in-flight request finish and
// flush before the connection dies.
func TestGracefulDrain(t *testing.T) {
	// A real-time backend makes the in-flight GET genuinely slow
	// (~100 ms), so Shutdown provably overlaps it.
	store := backend.NewRealTime(penalty.Uniform(0.1), func(uint64) int { return 8 }, 1.0)
	srv, addr := startServer(t, Options{Backend: store, DrainTimeout: 5 * time.Second})
	cl := dial(t, addr)
	cl.send(t, "get slowkey\r\n")
	time.Sleep(20 * time.Millisecond) // let the handler enter the fetch
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	// Despite the shutdown racing it, the response must arrive complete.
	cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := cl.line(t)
	if !strings.HasPrefix(got, "VALUE slowkey") {
		t.Fatalf("drained response -> %q", got)
	}
	cl.body(t, got)
	if got := cl.line(t); got != "END" {
		t.Fatalf("drained end -> %q", got)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if st := srv.Stats(); st.ForcedCloses != 0 {
		t.Fatalf("ForcedCloses = %d, want 0 (drain should have sufficed)", st.ForcedCloses)
	}
}

// TestDrainWakesIdleUnderReadTimeout: an idle handler whose read deadline
// is a minute away, armed too recently to be re-armed, is still woken by
// Shutdown's immediate deadline and exits without being forced.
func TestDrainWakesIdleUnderReadTimeout(t *testing.T) {
	srv, addr := startServer(t, Options{ReadTimeout: time.Minute, DrainTimeout: 5 * time.Second})
	cl := dial(t, addr)
	for i := 0; i < 2; i++ {
		cl.send(t, "version\r\n")
		cl.line(t)
	}
	start := time.Now()
	srv.Shutdown()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Shutdown took %v with one idle connection", took)
	}
	cl.conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := cl.r.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection read after Shutdown -> %v, want EOF", err)
	}
	if st := srv.Stats(); st.ForcedCloses != 0 {
		t.Fatalf("ForcedCloses = %d, want 0", st.ForcedCloses)
	}
}

// TestDrainTimeoutForcesClose verifies a connection that outlives the drain
// window is force-closed rather than wedging Shutdown.
func TestDrainTimeoutForcesClose(t *testing.T) {
	store := backend.NewRealTime(penalty.Uniform(2.0), func(uint64) int { return 8 }, 1.0)
	srv, addr := startServer(t, Options{Backend: store, DrainTimeout: 100 * time.Millisecond})
	cl := dial(t, addr)
	cl.send(t, "get verycold\r\n") // fetch sleeps ~2 s, far past the window
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	srv.Shutdown()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %v despite 100ms drain window", elapsed)
	}
	if st := srv.Stats(); st.ForcedCloses != 1 {
		t.Fatalf("ForcedCloses = %d, want 1", st.ForcedCloses)
	}
}

// TestErrorClassification verifies client-caused protocol errors are counted
// apart from server-side failures and do not kill the connection.
func TestErrorClassification(t *testing.T) {
	srv, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "bogus\r\n")
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("unknown verb -> %q", got)
	}
	cl.send(t, "set k 0 0 notanumber\r\n")
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad operand -> %q", got)
	}
	cl.send(t, "incr k 1\r\n") // miss, then make it non-numeric
	if got := cl.line(t); got != "NOT_FOUND" {
		t.Fatalf("incr miss -> %q", got)
	}
	cl.send(t, "set k 0 0 3\r\nabc\r\nincr k 1\r\n")
	cl.line(t)
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("incr non-numeric -> %q", got)
	}
	// The connection survived every client error.
	cl.send(t, "version\r\n")
	if got := cl.line(t); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("connection dead after client errors: %q", got)
	}
	st := srv.Stats()
	if st.ClientErrors < 3 {
		t.Fatalf("ClientErrors = %d, want >= 3", st.ClientErrors)
	}
	if st.ServerErrors != 0 {
		t.Fatalf("ServerErrors = %d, want 0 (all faults were the client's)", st.ServerErrors)
	}
}

// TestLineTooLongCloses verifies an overlong line draws CLIENT_ERROR and a
// close (framing is unrecoverable).
func TestLineTooLongCloses(t *testing.T) {
	srv, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "get "+strings.Repeat("k", 9000)+"\r\n")
	cl.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := cl.r.ReadString('\n')
	if err != nil || !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("overlong line -> %q, %v", got, err)
	}
	if _, err := cl.r.ReadByte(); err != io.EOF {
		t.Fatalf("connection alive after framing loss: %v", err)
	}
	if st := srv.Stats(); st.ClientErrors != 1 {
		t.Fatalf("ClientErrors = %d, want 1", st.ClientErrors)
	}
}

// TestBackendRetrySucceeds verifies a transiently failing backend is retried
// and the GET still succeeds.
func TestBackendRetrySucceeds(t *testing.T) {
	store := backend.New(penalty.Uniform(0.001), func(uint64) int { return 8 })
	// ~50% failures per attempt; 5 retries make overall failure odds
	// ~1.6%, and the test key below is chosen to succeed within budget.
	store.SetFaults(&backend.Faults{ErrRate: 0.5, Seed: 42})
	srv, addr := startServer(t, Options{
		Backend:      store,
		FetchRetries: 8,
		FetchBackoff: time.Millisecond,
	})
	cl := dial(t, addr)
	for i := 0; i < 10; i++ {
		// getValue reads each body by its byte count.
		if val, ok := getValue(t, cl, fmt.Sprintf("retry%d", i)); !ok || len(val) != 8 {
			t.Fatalf("get retry%d -> (%q, %v) (retries should have carried it)", i, val, ok)
		}
	}
	if st := srv.Stats(); st.BackendRetries == 0 {
		t.Fatal("no retries recorded under 50% error rate")
	}
	_ = srv
}

// TestServeStale verifies a GET whose backend fetch fails degrades to the
// engine's retained stale copy instead of a miss.
func TestServeStale(t *testing.T) {
	store := backend.New(penalty.Uniform(0.001), func(uint64) int { return 8 })
	cfg := defaultCfg()
	cfg.Stale = valuetable.New(1<<16, 0)
	srv, addr := startServerCfg(t, cfg, Options{
		Backend: store,
	})
	cl := dial(t, addr)

	// Store a value already expired: the next GET lazily reaps it into
	// the stale buffer.
	cl.send(t, "set ghosted 7 -1 5\r\nrelic\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}

	// Healthy backend: the expired item is reaped, the fetch refills.
	cl.send(t, "get ghosted\r\n")
	got := cl.line(t)
	if !strings.HasPrefix(got, "VALUE ghosted") {
		t.Fatalf("refill get -> %q", got)
	}
	cl.body(t, got)
	cl.line(t)

	// Now expire it again and kill the backend outright.
	cl.send(t, "set ghosted 7 -1 5\r\nrelic\r\n")
	cl.line(t)
	store.SetFaults(&backend.Faults{ErrRate: 1.0, Seed: 7})

	cl.send(t, "get ghosted\r\n")
	if got := cl.line(t); got != "VALUE ghosted 7 5" {
		t.Fatalf("stale get header -> %q", got)
	}
	if got := cl.line(t); got != "relic" {
		t.Fatalf("stale get body -> %q", got)
	}
	if got := cl.line(t); got != "END" {
		t.Fatalf("stale get end -> %q", got)
	}
	st := srv.Stats()
	if st.StaleServes == 0 {
		t.Fatal("StaleServes = 0, want > 0")
	}
	if st.BackendFailures == 0 {
		t.Fatal("BackendFailures = 0, want > 0")
	}

	// Without a stale copy the degraded GET is a plain miss, not an
	// error.
	cl.send(t, "get neverseen\r\n")
	if got := cl.line(t); got != "END" {
		t.Fatalf("degraded miss -> %q", got)
	}
}

// TestNoStaleBufferServesMiss: serve-stale is the engine's stale buffer and
// nothing else. A read-through server whose engine keeps none answers a GET
// of an expired resident key as a miss when its backend fails.
func TestNoStaleBufferServesMiss(t *testing.T) {
	store := backend.New(penalty.Uniform(0.001), func(uint64) int { return 8 })
	srv, addr := startServerCfg(t, defaultCfg(), Options{Backend: store})
	cl := dial(t, addr)
	cl.send(t, "set relic 7 -1 5\r\nbones\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	store.SetFaults(&backend.Faults{ErrRate: 1.0, Seed: 7})
	cl.send(t, "get relic\r\n")
	if got := cl.line(t); got != "END" {
		t.Fatalf("get of an expired key with the backend down -> %q, want a miss", got)
	}
	if st := srv.Stats(); st.StaleServes != 0 || st.BackendFailures != 1 {
		t.Fatalf("StaleServes = %d, BackendFailures = %d, want 0 and 1", st.StaleServes, st.BackendFailures)
	}
}

// TestFetchTimeout verifies a wedged-slow backend attempt is cut off by
// FetchTimeout rather than pinning the connection.
func TestFetchTimeout(t *testing.T) {
	store := backend.NewRealTime(penalty.Uniform(1.0), func(uint64) int { return 8 }, 1.0)
	srv, addr := startServer(t, Options{
		Backend:      store,
		FetchTimeout: 30 * time.Millisecond,
	})
	cl := dial(t, addr)
	start := time.Now()
	cl.send(t, "get gluekey\r\n")
	if got := cl.line(t); got != "END" {
		t.Fatalf("timed-out fetch -> %q, want plain miss", got)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("GET took %v despite 30ms fetch timeout", elapsed)
	}
	st := srv.Stats()
	if st.BackendTimeouts == 0 {
		t.Fatal("BackendTimeouts = 0, want > 0")
	}
	if st.BackendFailures == 0 {
		t.Fatal("BackendFailures = 0, want > 0")
	}
}

// TestFaultSuite is the acceptance scenario: 20% backend error rate plus
// latency spikes, concurrent clients with mixed operations, and the server
// must answer every request within its deadline and then drain cleanly.
func TestFaultSuite(t *testing.T) {
	store := backend.NewRealTime(penalty.Uniform(0.001), func(uint64) int { return 16 }, 1.0)
	store.SetFaults(&backend.Faults{
		ErrRate:    0.20,
		SpikeRate:  0.05,
		SpikeSleep: 5 * time.Millisecond,
		Seed:       1,
	})
	cfg := defaultCfg()
	cfg.Stale = valuetable.New(1<<18, 0)
	srv, addr := startServerCfg(t, cfg, Options{
		Backend:      store,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
		MaxConns:     8,
		MaxPipeline:  16,
		FetchTimeout: 250 * time.Millisecond,
		FetchRetries: 2,
		FetchBackoff: time.Millisecond,
		DrainTimeout: 10 * time.Second,
	})

	const (
		workers = 8
		ops     = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			rng := rand.New(rand.NewSource(int64(w)))
			readLine := func() (string, error) {
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				l, err := r.ReadString('\n')
				return strings.TrimRight(l, "\r\n"), err
			}
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("fk%d", rng.Intn(40))
				switch rng.Intn(10) {
				case 0, 1, 2: // set
					msg := fmt.Sprintf("set %s 0 0 4\r\nbody\r\n", key)
					if _, err := conn.Write([]byte(msg)); err != nil {
						errs <- fmt.Errorf("worker %d op %d write: %w", w, i, err)
						return
					}
					if got, err := readLine(); err != nil || got != "STORED" {
						errs <- fmt.Errorf("worker %d op %d set -> %q, %v", w, i, got, err)
						return
					}
				case 3: // delete
					if _, err := conn.Write([]byte("delete " + key + "\r\n")); err != nil {
						errs <- fmt.Errorf("worker %d op %d write: %w", w, i, err)
						return
					}
					if got, err := readLine(); err != nil || (got != "DELETED" && got != "NOT_FOUND") {
						errs <- fmt.Errorf("worker %d op %d delete -> %q, %v", w, i, got, err)
						return
					}
				case 4: // incr on a non-numeric or missing key: any legal reply
					if _, err := conn.Write([]byte("incr " + key + " 1\r\n")); err != nil {
						errs <- fmt.Errorf("worker %d op %d write: %w", w, i, err)
						return
					}
					got, err := readLine()
					if err != nil {
						errs <- fmt.Errorf("worker %d op %d incr: %v", w, i, err)
						return
					}
					if got != "NOT_FOUND" && !strings.HasPrefix(got, "CLIENT_ERROR") && !isNumber(got) {
						errs <- fmt.Errorf("worker %d op %d incr -> %q", w, i, got)
						return
					}
				default: // get: must terminate with END whatever the backend does
					if _, err := conn.Write([]byte("get " + key + "\r\n")); err != nil {
						errs <- fmt.Errorf("worker %d op %d write: %w", w, i, err)
						return
					}
					for {
						got, err := readLine()
						if err != nil {
							errs <- fmt.Errorf("worker %d op %d get: %v", w, i, err)
							return
						}
						if got == "END" {
							break
						}
						var vk string
						var vf uint32
						var vn int
						if _, err := fmt.Sscanf(got, "VALUE %s %d %d", &vk, &vf, &vn); err != nil {
							errs <- fmt.Errorf("worker %d op %d get line -> %q", w, i, got)
							return
						}
						// Backend-filled bodies are arbitrary bytes;
						// consume exactly <bytes> + CRLF.
						conn.SetReadDeadline(time.Now().Add(10 * time.Second))
						if _, err := io.ReadFull(r, make([]byte, vn+2)); err != nil {
							errs <- fmt.Errorf("worker %d op %d get body: %v", w, i, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The backend provably misbehaved and the server absorbed it.
	if store.InjectedErrors() == 0 {
		t.Fatal("fault injection never fired; scenario is vacuous")
	}
	st := srv.Stats()
	if st.IOErrors != 0 {
		t.Fatalf("IOErrors = %d, want 0", st.IOErrors)
	}

	// Shutdown after the storm must drain, not wedge.
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown wedged after fault storm")
	}
}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// TestStatsCommandReportsServerCounters verifies the stats verb surfaces the
// new server-level counters.
func TestStatsCommandReportsServerCounters(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "bogus\r\n")
	cl.line(t)
	cl.send(t, "stats\r\n")
	stats := map[string]string{}
	for {
		l := cl.line(t)
		if l == "END" {
			break
		}
		parts := strings.SplitN(l, " ", 3)
		if len(parts) == 3 && parts[0] == "STAT" {
			stats[parts[1]] = parts[2]
		}
	}
	for _, want := range []string{
		"curr_connections", "total_connections", "client_errors",
		"server_errors", "idle_timeouts", "response_batches",
		"batched_commands", "backend_failures", "stale_serves",
	} {
		if _, ok := stats[want]; !ok {
			t.Fatalf("stats reply missing %q", want)
		}
	}
	if stats["client_errors"] != "1" {
		t.Fatalf("client_errors = %q, want 1", stats["client_errors"])
	}
	if stats["curr_connections"] != "1" {
		t.Fatalf("curr_connections = %q, want 1", stats["curr_connections"])
	}
}

// TestServerStressShardBacked hammers a live shard-backed server over TCP
// with pipelined mixed operations from many connections. Run under -race;
// the assertions are response coherence and clean invariants after the storm.
func TestServerStressShardBacked(t *testing.T) {
	g, err := shard.New(defaultCfg(), 4, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
		MaxPipeline:  32,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	addr := ln.Addr().String()

	const (
		workers = 8
		rounds  = 40
		burst   = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for round := 0; round < rounds; round++ {
				// Build one pipelined burst, then validate every reply
				// in order.
				var req strings.Builder
				var expect []string // "STORED", "get:<key>", "DELETED|NOT_FOUND", "delta"
				for b := 0; b < burst; b++ {
					key := fmt.Sprintf("sk%d", rng.Intn(64))
					switch rng.Intn(6) {
					case 0, 1:
						v := "val:" + key
						fmt.Fprintf(&req, "set %s 3 0 %d\r\n%s\r\n", key, len(v), v)
						expect = append(expect, "STORED")
					case 2:
						fmt.Fprintf(&req, "delete %s\r\n", key)
						expect = append(expect, "DELETED|NOT_FOUND")
					case 3:
						nk := fmt.Sprintf("nk%d", rng.Intn(16))
						fmt.Fprintf(&req, "set %s 0 0 1\r\n5\r\nincr %s 3\r\n", nk, nk)
						expect = append(expect, "STORED", "delta")
					default:
						fmt.Fprintf(&req, "get %s\r\n", key)
						expect = append(expect, "get:"+key)
					}
				}
				if _, err := conn.Write([]byte(req.String())); err != nil {
					errs <- fmt.Errorf("worker %d round %d write: %w", w, round, err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				for i, want := range expect {
					line, err := r.ReadString('\n')
					if err != nil {
						errs <- fmt.Errorf("worker %d round %d reply %d: %w", w, round, i, err)
						return
					}
					got := strings.TrimRight(line, "\r\n")
					switch {
					case want == "STORED":
						if got != "STORED" {
							errs <- fmt.Errorf("worker %d round %d: set -> %q", w, round, got)
							return
						}
					case want == "DELETED|NOT_FOUND":
						if got != "DELETED" && got != "NOT_FOUND" {
							errs <- fmt.Errorf("worker %d round %d: delete -> %q", w, round, got)
							return
						}
					case want == "delta":
						if !isNumber(got) {
							errs <- fmt.Errorf("worker %d round %d: incr -> %q", w, round, got)
							return
						}
					case strings.HasPrefix(want, "get:"):
						key := want[len("get:"):]
						if got == "END" {
							continue // miss
						}
						if got != fmt.Sprintf("VALUE %s 3 %d", key, len("val:"+key)) {
							errs <- fmt.Errorf("worker %d round %d: get header -> %q", w, round, got)
							return
						}
						body, err := r.ReadString('\n')
						if err != nil || strings.TrimRight(body, "\r\n") != "val:"+key {
							errs <- fmt.Errorf("worker %d round %d: get body -> %q, %v", w, round, body, err)
							return
						}
						end, err := r.ReadString('\n')
						if err != nil || strings.TrimRight(end, "\r\n") != "END" {
							errs <- fmt.Errorf("worker %d round %d: get end -> %q, %v", w, round, end, err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.IOErrors != 0 || st.ClientErrors != 0 || st.ServerErrors != 0 {
		t.Fatalf("stress run not clean: %+v", st)
	}
	if st.Batches == 0 || st.BatchedCmds <= st.Batches {
		t.Fatalf("no pipelining observed: %+v", st)
	}
}

// TestLargeRepliesRecycleBuffers drives the reply path's pooled buffers from
// several connections at once: read-through GETs of values from 100 B to
// 300 KiB against a cache a fraction of their total, so response buffers
// grow out of the pool and go back to it after the flush, and misses are
// filled in place in them. Every reply must carry exactly its
// key's bytes — a buffer handed back while something still read it, or two
// users of one buffer, shows up as a wrong body (and under -race as a race).
func TestLargeRepliesRecycleBuffers(t *testing.T) {
	sizer := func(h uint64) int {
		if h%3 == 0 {
			return 70<<10 + int(h>>8%(230<<10)) // above maxRetainedScratch
		}
		return 100 + int(h>>8%2000)
	}
	store := backend.New(penalty.Uniform(0.001), sizer)
	_, addr := startServerCfg(t, cache.Config{CacheBytes: 4 << 20, StoreValues: true, WindowLen: 10_000},
		Options{Backend: store})
	const conns, gets, keys = 4, 150, 60
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReaderSize(conn, 1<<16)
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < gets; i++ {
				// Two keys per request: the second value lands behind the
				// first in one response buffer.
				k1, k2 := fmt.Sprintf("big%03d", rng.Intn(keys)), fmt.Sprintf("big%03d", rng.Intn(keys))
				if _, err := fmt.Fprintf(conn, "get %s %s\r\n", k1, k2); err != nil {
					t.Error(err)
					return
				}
				for _, k := range []string{k1, k2} {
					h := kv.HashString(k)
					want := backend.Synthesize(h, sizer(h))
					head, err := r.ReadString('\n')
					if err != nil || head != fmt.Sprintf("VALUE %s 0 %d\r\n", k, len(want)) {
						t.Errorf("conn %d get %d: header %q, %v", c, i, head, err)
						return
					}
					got := make([]byte, len(want)+2)
					if _, err := io.ReadFull(r, got); err != nil || string(got[:len(want)]) != string(want) {
						t.Errorf("conn %d get %d: key %s came back with another body (%v)", c, i, k, err)
						return
					}
				}
				if end, err := r.ReadString('\n'); err != nil || end != "END\r\n" {
					t.Errorf("conn %d get %d: end %q, %v", c, i, end, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
