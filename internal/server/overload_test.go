package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cluster"
	"pamakv/internal/overload"
	"pamakv/internal/penalty"
	"pamakv/internal/proto"
)

// readOneGetResponse consumes one GET response from r: VALUE blocks up to
// END, or a single shed/error line. It reports what the response was and
// fails on torn frames (a VALUE header whose body never arrives).
func readOneGetResponse(t *testing.T, r *bufio.Reader) (kind string, err error) {
	t.Helper()
	hit := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return "", err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "VALUE "):
			var key string
			var flags, n int
			if _, err := fmt.Sscanf(line, "VALUE %s %d %d", &key, &flags, &n); err != nil {
				t.Fatalf("malformed VALUE header %q", line)
			}
			if _, err := io.CopyN(io.Discard, r, int64(n)+2); err != nil {
				t.Fatalf("torn VALUE body after %q: %v", line, err)
			}
			hit = true
		case line == "END":
			if hit {
				return "hit", nil
			}
			return "miss", nil
		case line == "SERVER_ERROR "+proto.ShedMsg:
			return "shed", nil
		case strings.HasPrefix(line, "SERVER_ERROR"):
			return "error", nil
		default:
			t.Fatalf("unexpected response line %q", line)
		}
	}
}

// bucketKeys scans synthetic keys and buckets them by the penalty subclass
// the server itself would assign, until each bucket reaches its quota.
func bucketKeys(t *testing.T, store *backend.Store, cheapN, expN int, expLo, expHi float64) (cheap, expensive []string) {
	t.Helper()
	for i := 0; i < 200_000 && (len(cheap) < cheapN || len(expensive) < expN); i++ {
		k := fmt.Sprintf("storm:%d", i)
		p := store.PenaltyOf(k)
		sub := penalty.SubclassFor(p, penalty.SubclassBounds)
		switch {
		case sub <= 1 && len(cheap) < cheapN:
			cheap = append(cheap, k)
		case sub == 4 && p >= expLo && p <= expHi && len(expensive) < expN:
			expensive = append(expensive, k)
		}
	}
	if len(cheap) < cheapN || len(expensive) < expN {
		t.Fatalf("key scan exhausted: %d cheap (want %d), %d expensive (want %d)",
			len(cheap), cheapN, len(expensive), expN)
	}
	return cheap, expensive
}

func p99(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(float64(len(samples))*0.99) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// stormP99Env names the environment variable that turns on
// TestOverloadStorm's wall-clock p99 comparison. CI's overload-storm job,
// which runs the acceptance tests alone, sets it; a full-suite run on a
// loaded host would compare against a baseline measured under different
// contention seconds earlier.
const stormP99Env = "PAMA_STORM_P99"

// TestOverloadStorm is the acceptance scenario: a read stampede at far above
// admission capacity. The server must shed (cheap classes first, the
// protected class last), never exceed the hard in-flight ceiling, and keep
// the protected highest-penalty subclass within 20% of its unloaded baseline
// success rate — and, with stormP99Env set, of its p99 latency.
func TestOverloadStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second storm")
	}
	// Penalty-true backend: expensive keys (subclass 4, 1.5–4.5 s modeled
	// penalty) cost 12–36 ms per fetch at this scale; cheap keys are
	// sub-millisecond.
	const scale = 0.008
	store := backend.NewRealTime(penalty.Default(), func(uint64) int { return 64 }, scale)
	const (
		maxInflight = 16
		baseKeys    = 60 // distinct expensive keys for the unloaded baseline
		stormKeys   = 80 // distinct expensive keys probed during the storm
	)
	// The cheap pool must outrun the cache: with only a few hundred keys
	// one storm pass fills the cache and the stampede degenerates into
	// microsecond hits that never saturate admission. Tens of thousands
	// of distinct keys keep misses (and evictions) flowing.
	cheap, expensive := bucketKeys(t, store, 30_000, baseKeys+stormKeys, 1.5, 4.5)

	srv, addr := startServer(t, Options{
		Backend: store,
		Overload: &overload.Config{
			MaxInflight:   maxInflight,
			InitialLimit:  maxInflight,
			MinLimit:      4,
			Target:        150 * time.Millisecond,
			QueueLimit:    16,
			SojournCutoff: 250 * time.Millisecond,
			TierHold:      200 * time.Millisecond,
		},
	})

	// getExpensive runs sequential GETs for distinct expensive keys on
	// one connection, recording per-request latency; every response must
	// be a hit (read-through fill) for the request to count as a success.
	getExpensive := func(keys []string) (lats []time.Duration, failures int) {
		cl := dial(t, addr)
		for _, k := range keys {
			start := time.Now()
			cl.send(t, "get "+k+"\r\n")
			kind, err := readOneGetResponse(t, cl.r)
			if err != nil {
				t.Errorf("expensive get %s: %v", k, err)
				failures++
				continue
			}
			lats = append(lats, time.Since(start))
			if kind != "hit" {
				failures++
			}
		}
		return lats, failures
	}

	// Unloaded baseline: two connections, sequential expensive misses.
	var baseMu sync.Mutex
	var baseLats []time.Duration
	baseFailures := 0
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(keys []string) {
			defer wg.Done()
			lats, fails := getExpensive(keys)
			baseMu.Lock()
			baseLats = append(baseLats, lats...)
			baseFailures += fails
			baseMu.Unlock()
		}(expensive[i*baseKeys/2 : (i+1)*baseKeys/2])
	}
	wg.Wait()
	if baseFailures != 0 {
		t.Fatalf("baseline had %d failures; unloaded expensive gets must all hit", baseFailures)
	}
	baseP99 := p99(baseLats)

	// The storm: 40 connections of pipelined cheap-GET bursts — hundreds
	// of outstanding requests against a 16-slot ceiling.
	stop := make(chan struct{})
	var stormWG sync.WaitGroup
	for i := 0; i < 40; i++ {
		stormWG.Add(1)
		go func(seed int) {
			defer stormWG.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			const burst = 8
			for n := seed; ; n += burst {
				select {
				case <-stop:
					return
				default:
				}
				var req strings.Builder
				for j := 0; j < burst; j++ {
					req.WriteString("get " + cheap[(n+j)%len(cheap)] + "\r\n")
				}
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := conn.Write([]byte(req.String())); err != nil {
					return
				}
				for j := 0; j < burst; j++ {
					if _, err := readOneGetResponse(t, r); err != nil {
						return
					}
				}
			}
		}(i * 751) // disjoint strides through the cheap pool
	}
	// Let the stampede build pressure before probing.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Overload().Stats().ShedTotal == 0 {
		if time.Now().After(deadline) {
			close(stop)
			stormWG.Wait()
			t.Fatal("storm produced no sheds within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Probe the protected class mid-storm: four connections of distinct
	// expensive keys.
	var stormMu sync.Mutex
	var stormLats []time.Duration
	stormFailures := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(keys []string) {
			defer wg.Done()
			lats, fails := getExpensive(keys)
			stormMu.Lock()
			stormLats = append(stormLats, lats...)
			stormFailures += fails
			stormMu.Unlock()
		}(expensive[baseKeys+i*stormKeys/4 : baseKeys+(i+1)*stormKeys/4])
	}
	wg.Wait()
	close(stop)
	stormWG.Wait()

	st := srv.Overload().Stats()
	if st.ShedTotal == 0 {
		t.Fatal("storm at >4x capacity shed nothing")
	}
	if st.PeakInflight > maxInflight {
		t.Fatalf("peak inflight %d exceeded the hard ceiling %d", st.PeakInflight, maxInflight)
	}
	cheapSheds := st.ShedBySub[0] + st.ShedBySub[1]
	if cheapSheds == 0 {
		t.Fatalf("no cheap-subclass sheds; shed-by-sub = %v", st.ShedBySub)
	}
	// Protected class: success within 20% of the (100%) baseline, and the
	// controller sheds it less than the cheap classes and no more often
	// than the probes saw failures.
	if maxFails := stormKeys / 5; stormFailures > maxFails {
		t.Fatalf("protected class failed %d/%d during storm (allowed %d)",
			stormFailures, stormKeys, maxFails)
	}
	if prot := st.ShedBySub[4]; prot > uint64(stormFailures) || prot >= cheapSheds {
		t.Fatalf("protected class shed %d times (%d probe failures, %d cheap sheds)",
			prot, stormFailures, cheapSheds)
	}
	t.Logf("baseline p99=%v storm p99=%v sheds=%d by-sub=%v peak-inflight=%d",
		baseP99, p99(stormLats), st.ShedTotal, st.ShedBySub, st.PeakInflight)
	if os.Getenv(stormP99Env) == "" {
		t.Logf("p99 comparison skipped; set %s=1 to run it", stormP99Env)
		return
	}
	// Protected class: p99 within 20% of unloaded baseline. The race
	// detector multiplies per-request bookkeeping cost across the 40
	// storm connections, so grant it a fixed scheduling allowance — still
	// far below the hundreds of milliseconds an unprotected stampede
	// would cost the expensive class.
	limit := baseP99 + baseP99/5
	if raceEnabled {
		limit += 30 * time.Millisecond
	}
	if stormP99 := p99(stormLats); stormP99 > limit {
		t.Fatalf("protected-class p99 %v under storm, want <= %v (baseline %v + 20%%)",
			stormP99, limit, baseP99)
	}
}

// TestOverloadDrainMidBurst: Shutdown lands in the middle of pipelined
// bursts while the admission queue holds waiters. Every accepted request
// must be answered (served or shed) or its connection closed cleanly at a
// response boundary — never a torn frame, never a waiter left blocked on
// admission.
func TestOverloadDrainMidBurst(t *testing.T) {
	store := backend.NewRealTime(penalty.Uniform(0.05), func(uint64) int { return 8 }, 1.0)
	srv, addr := startServer(t, Options{
		Backend:      store,
		DrainTimeout: 10 * time.Second,
		Overload: &overload.Config{
			MaxInflight:   4,
			InitialLimit:  4,
			Target:        time.Second,
			QueueLimit:    8,
			SojournCutoff: 5 * time.Second,
		},
	})

	const conns, perConn = 6, 10
	var answered, cleanEOF atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			var req strings.Builder
			for j := 0; j < perConn; j++ {
				fmt.Fprintf(&req, "get drain:%d:%d\r\n", i, j)
			}
			if _, err := conn.Write([]byte(req.String())); err != nil {
				return
			}
			r := bufio.NewReader(conn)
			for j := 0; j < perConn; j++ {
				if _, err := readOneGetResponse(t, r); err != nil {
					// readOneGetResponse fails the test itself on a
					// torn frame; an error here is EOF at a response
					// boundary — a clean close.
					cleanEOF.Add(1)
					return
				}
				answered.Add(1)
			}
		}(i)
	}

	time.Sleep(40 * time.Millisecond) // bursts in flight, queue populated
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Shutdown wedged with queued admissions outstanding")
	}
	wg.Wait()
	if answered.Load() == 0 {
		t.Fatal("no responses before shutdown; the drain overlapped nothing")
	}
	t.Logf("answered=%d clean-eofs=%d forced-closes=%d",
		answered.Load(), cleanEOF.Load(), srv.Stats().ForcedCloses)
}

// TestOverloadTierDrivesClusterDegraded: the server's tier transitions must
// flip the cluster into degraded mode (peer retries halved) the moment
// pressure appears, and back once it subsides.
func TestOverloadTierDrivesClusterDegraded(t *testing.T) {
	store := backend.NewRealTime(penalty.Uniform(0.3), func(uint64) int { return 8 }, 1.0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := ln.Addr().String()
	ln.Close()
	peers, err := cluster.New(cluster.Config{
		Self:    self,
		Members: []string{self},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peers.Close()

	_, addr := startServer(t, Options{
		Backend: store,
		Cluster: peers,
		Overload: &overload.Config{
			MaxInflight:   1,
			MinLimit:      1,
			InitialLimit:  1,
			Target:        time.Second,
			QueueLimit:    4,
			SojournCutoff: 5 * time.Second,
			TierHold:      50 * time.Millisecond,
		},
	})
	if peers.Degraded() {
		t.Fatal("degraded before any pressure")
	}

	// One slow fetch occupies the single slot; a second request finds the
	// server saturated, which is tier strained — the cluster tier must
	// turn degraded.
	slow := dial(t, addr)
	slow.send(t, "get tier:slow\r\n") // ~300ms fetch
	time.Sleep(20 * time.Millisecond)
	queued := dial(t, addr)
	queued.send(t, "get tier:queued\r\n")
	deadline := time.Now().Add(2 * time.Second)
	for !peers.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("pressure did not degrade the cluster tier")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Both responses complete; with the pressure gone and the hold
	// elapsed, calm traffic must walk the tier back down and clear the
	// degraded mode.
	for _, cl := range []*client{slow, queued} {
		if kind, err := readOneGetResponse(t, cl.r); err != nil || kind != "hit" {
			t.Fatalf("pressured get = %q, %v", kind, err)
		}
	}
	probe := dial(t, addr)
	deadline = time.Now().Add(5 * time.Second)
	for peers.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("cluster still degraded after pressure subsided")
		}
		time.Sleep(20 * time.Millisecond)
		probe.send(t, "get tier:probe\r\n")
		if _, err := readOneGetResponse(t, probe.r); err != nil {
			t.Fatal(err)
		}
	}
}
