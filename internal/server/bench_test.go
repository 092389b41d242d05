package server

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/proto"
)

// benchServer builds a value-storing PAMA engine preloaded with n keys.
func benchServer(tb testing.TB, n int) (*Server, []string) {
	tb.Helper()
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  1 << 24,
		StoreValues: true,
		WindowLen:   1 << 40,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, n)
	body := strings.Repeat("v", 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%d", i)
		if err := c.Set(keys[i], len(keys[i])+len(body)+itemOverhead, 0.01, 0, []byte(body)); err != nil {
			tb.Fatal(err)
		}
	}
	return New(c, Options{}), keys
}

// TestServedGetAllocations pins the dispatch path of a GET hit (parse
// already done, response appended to a reused buffer) at zero steady-state
// allocations: the connection scratch supplies the value buffer the engine
// copies into, and the latency instrumentation and attribution counters must
// not add to it. AllocsPerRun's warm-up call grows the scratch once.
func TestServedGetAllocations(t *testing.T) {
	srv, keys := benchServer(t, 4)
	cmd := &proto.Command{Verb: proto.VerbGet, Keys: keys[:1]}
	sc := &connScratch{out: make([]byte, 0, 4096)}
	allocs := testing.AllocsPerRun(5000, func() {
		sc.out = srv.dispatch(sc, sc.out[:0], cmd, nil)
	})
	if allocs > 0.5 {
		t.Fatalf("served GET allocates %.2f objects per request, want 0", allocs)
	}
	if !strings.HasPrefix(string(sc.out), "VALUE ") {
		t.Fatalf("dispatch output %q", sc.out)
	}
}

// BenchmarkServerGetRoundTrip measures a full client round trip — request
// bytes on a real TCP socket, parse, engine hit, response flush, client
// read — one GET per round trip (no pipelining).
func BenchmarkServerGetRoundTrip(b *testing.B) {
	srv, keys := benchServer(b, 1<<10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmt.Fprintf(conn, "get %s\r\n", keys[i&(len(keys)-1)]); err != nil {
			b.Fatal(err)
		}
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				b.Fatal(err)
			}
			if strings.HasPrefix(line, "END") {
				break
			}
		}
	}
}

// BenchmarkServerPipelinedGetHit measures the steady-state serving path the
// way a batching client drives it: 64 GETs per socket write, one flushed
// response batch per read. ns/op and allocs/op are per GET, not per batch.
func BenchmarkServerPipelinedGetHit(b *testing.B) {
	const depth = 64
	srv, keys := benchServer(b, 1<<10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	var req []byte
	for i := 0; i < depth; i++ {
		req = append(req, "get "...)
		req = append(req, keys[i]...)
		req = append(req, '\r', '\n')
	}
	r := bufio.NewReaderSize(conn, 1<<16)
	readBatch := func() {
		for ends := 0; ends < depth; {
			line, err := r.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			if bytes.HasPrefix(line, []byte("END")) {
				ends++
			}
		}
	}
	// Warm the connection so the server's scratch buffers are grown.
	if _, err := conn.Write(req); err != nil {
		b.Fatal(err)
	}
	readBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		readBatch()
	}
}

// BenchmarkServerSetFill measures the store path: pipelined overwrite SETs of
// a 100-byte body into resident keys, so slot reuse (not eviction) dominates.
func BenchmarkServerSetFill(b *testing.B) {
	const depth = 64
	srv, keys := benchServer(b, depth)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	body := strings.Repeat("w", 100)
	var req []byte
	for i := 0; i < depth; i++ {
		req = append(req, fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", keys[i], len(body), body)...)
	}
	r := bufio.NewReaderSize(conn, 1<<16)
	readBatch := func() {
		for n := 0; n < depth; n++ {
			line, err := r.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.HasPrefix(line, []byte("STORED")) {
				b.Fatalf("unexpected reply %q", line)
			}
		}
	}
	if _, err := conn.Write(req); err != nil {
		b.Fatal(err)
	}
	readBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		readBatch()
	}
}

// BenchmarkClusterForwardPipelined measures the peer hop the way the
// cluster_forward workload drives it: two in-process nodes, all traffic to
// one, 16-deep batches of 90 % GET / 10 % SET over Zipf-popular keys about
// half of which the other node owns (hot cache at its defaults, so the head
// is served locally and the tail takes the hop). ns/op and allocs/op are
// per command and cover both nodes; exchanges/batch is how many peer round
// trips a batch cost (one per forwarded command before the two-phase batch).
func BenchmarkClusterForwardPipelined(b *testing.B) {
	const depth, nkeys, nbatches = 16, 1 << 14, 1024
	nodes := startCluster(b, 2, cluster.Config{}, nil)
	conn, err := net.Dial("tcp", nodes[0].addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 1<<16)
	readReplies := func(n int) {
		for n > 0 {
			line, err := r.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			if bytes.HasPrefix(line, []byte("END")) || bytes.HasPrefix(line, []byte("STORED")) {
				n--
			}
		}
	}
	body := strings.Repeat("v", 100)
	set := func(key string) string { return fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(body), body) }
	for i := 0; i < nkeys; i += depth {
		var req string
		for j := i; j < i+depth; j++ {
			req += set(fmt.Sprintf("key%d", j))
		}
		if _, err := conn.Write([]byte(req)); err != nil {
			b.Fatal(err)
		}
		readReplies(depth)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.01, 1, nkeys-1)
	batches := make([][]byte, nbatches)
	for i := range batches {
		for j := 0; j < depth; j++ {
			key := fmt.Sprintf("key%d", zipf.Uint64())
			if rng.Intn(10) == 0 {
				batches[i] = append(batches[i], set(key)...)
			} else {
				batches[i] = append(batches[i], "get "+key+"\r\n"...)
			}
		}
	}
	before := nodes[0].srv.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		if _, err := conn.Write(batches[i/depth%nbatches]); err != nil {
			b.Fatal(err)
		}
		readReplies(depth)
	}
	b.StopTimer()
	after := nodes[0].srv.Stats()
	b.ReportMetric(float64(after.PeerExchanges-before.PeerExchanges)/float64(after.Batches-before.Batches), "exchanges/batch")
}
