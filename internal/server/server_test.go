package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
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
)

// Both cache implementations satisfy the server's Store surface.
var (
	_ Store = (*cache.Cache)(nil)
	_ Store = (*shard.Group)(nil)
)

func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  1 << 22,
		StoreValues: true,
		WindowLen:   10_000,
	}, core.New(core.DefaultConfig()))
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

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) send(t *testing.T, s string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
}

func (c *client) line(t *testing.T) string {
	t.Helper()
	l, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(l, "\r\n")
}

// body reads the body of the VALUE block whose header line was header, and
// its CRLF, by the header's byte count: a read-through body is binary and
// may hold any byte, a newline included.
func (c *client) body(t *testing.T, header string) string {
	t.Helper()
	f := strings.Fields(header) // VALUE key flags len [cas]
	if len(f) < 4 || f[0] != "VALUE" {
		t.Fatalf("value header %q", header)
	}
	n, err := strconv.Atoi(f[3])
	if err != nil {
		t.Fatalf("value header %q: %v", header, err)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, buf); err != nil || string(buf[n:]) != "\r\n" {
		t.Fatalf("body of %q: %q, %v", header, buf, err)
	}
	return string(buf[:n])
}

func TestSetGetDelete(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set greet 9 0 5\r\nhello\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	cl.send(t, "get greet\r\n")
	if got := cl.line(t); got != "VALUE greet 9 5" {
		t.Fatalf("get header -> %q", got)
	}
	if got := cl.line(t); got != "hello" {
		t.Fatalf("get body -> %q", got)
	}
	if got := cl.line(t); got != "END" {
		t.Fatalf("get end -> %q", got)
	}
	cl.send(t, "delete greet\r\n")
	if got := cl.line(t); got != "DELETED" {
		t.Fatalf("delete -> %q", got)
	}
	cl.send(t, "get greet\r\n")
	if got := cl.line(t); got != "END" {
		t.Fatalf("get after delete -> %q", got)
	}
	cl.send(t, "delete greet\r\n")
	if got := cl.line(t); got != "NOT_FOUND" {
		t.Fatalf("second delete -> %q", got)
	}
}

// TestBatchLatencyCountsPerFamily: the clock is read per batch, not per
// command, but every served command is still one observation in its family's
// histogram — and a command that failed to parse is none.
func TestBatchLatencyCountsPerFamily(t *testing.T) {
	srv, addr := startServer(t, Options{})
	cl := dial(t, addr)
	var batch strings.Builder
	replies := 0
	add := func(n int, cmd string) {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&batch, cmd, i)
		}
		replies += n
	}
	add(5, "set k%d 0 0 1\r\n7\r\n")
	add(1, "set k%d 0 0 notanumber\r\n") // recoverable CLIENT_ERROR mid-batch
	add(3, "incr k%d 2\r\n")
	add(1, "bogus%d\r\n") // and another
	add(2, "delete k%d\r\n")
	batch.WriteString("version\r\n")
	replies++
	cl.send(t, batch.String())
	for i := 0; i < replies; i++ {
		cl.line(t)
	}
	// GETs go last so their multi-line replies are easy to drain.
	cl.send(t, strings.Repeat("get k4\r\n", 7))
	for i := 0; i < 7*3; i++ {
		cl.line(t)
	}
	// A reply is written before its batch is observed; one more round trip
	// on the same connection orders this read after the observations above,
	// and its own (the second "other") is waited for.
	cl.send(t, "version\r\n")
	cl.line(t)
	for deadline := time.Now().Add(2 * time.Second); srv.Latencies()["other"].Count < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	want := map[string]uint64{"set": 5, "delta": 3, "delete": 2, "get": 7, "other": 2}
	for fam, snap := range srv.Latencies() {
		if snap.Count != want[fam] {
			t.Errorf("family %q observed %d requests, want %d", fam, snap.Count, want[fam])
		}
		if snap.Count > 0 && !(snap.Sum > 0) {
			t.Errorf("family %q has %d observations summing to %v", fam, snap.Count, snap.Sum)
		}
	}
	if st := srv.Stats(); st.ClientErrors != 2 {
		t.Errorf("ClientErrors = %d, want 2", st.ClientErrors)
	}
}

func TestMultiKeyGet(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\n")
	cl.line(t)
	cl.line(t)
	cl.send(t, "get a missing b\r\n")
	var lines []string
	for {
		l := cl.line(t)
		lines = append(lines, l)
		if l == "END" {
			break
		}
	}
	joined := strings.Join(lines, "|")
	if !strings.Contains(joined, "VALUE a 0 1|x") || !strings.Contains(joined, "VALUE b 0 1|y") {
		t.Fatalf("multi-get response: %v", lines)
	}
	if strings.Contains(joined, "missing") {
		t.Fatal("missing key should be silently omitted")
	}
}

func TestNoReply(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set k 0 0 1 noreply\r\nz\r\nget k\r\n")
	if got := cl.line(t); got != "VALUE k 0 1" {
		t.Fatalf("noreply set leaked a response: %q", got)
	}
}

func TestClientErrorKeepsConnection(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "bogus\r\n")
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad command -> %q", got)
	}
	cl.send(t, "version\r\n")
	if got := cl.line(t); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("connection unusable after client error: %q", got)
	}
}

func TestStats(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set k 0 0 1\r\nx\r\nset k 0 0 1\r\ny\r\n")
	cl.line(t)
	cl.line(t)
	cl.send(t, "get k\r\nget nope\r\nstats\r\n")
	stats := map[string]string{}
	for {
		l := cl.line(t)
		if l == "END" {
			if len(stats) > 0 {
				break
			}
			continue // END of the get responses
		}
		if strings.HasPrefix(l, "STAT ") {
			parts := strings.SplitN(l[5:], " ", 2)
			stats[parts[0]] = parts[1]
		}
	}
	if stats["get_hits"] != "1" || stats["get_misses"] != "1" || stats["cmd_set"] != "2" || stats["overwrites"] != "1" {
		t.Fatalf("stats = %v", stats)
	}
	if stats["policy"] != "pama" {
		t.Fatalf("policy stat = %q", stats["policy"])
	}
}

func TestFlushAll(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set k 0 0 1\r\nx\r\n")
	cl.line(t)
	cl.send(t, "flush_all\r\n")
	if got := cl.line(t); got != "OK" {
		t.Fatalf("flush_all -> %q", got)
	}
	cl.send(t, "get k\r\n")
	if got := cl.line(t); got != "END" {
		t.Fatalf("get after flush -> %q", got)
	}
}

func TestValueTooLarge(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	// Largest class slot is 8 KiB (64<<7); a 32 KiB value cannot be stored.
	big := strings.Repeat("v", 32<<10)
	cl.send(t, fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", len(big), big))
	if got := cl.line(t); !strings.HasPrefix(got, "SERVER_ERROR") {
		t.Fatalf("oversized set -> %q", got)
	}
}

func TestReadThroughBackend(t *testing.T) {
	store := backend.New(penalty.Uniform(0.001), func(uint64) int { return 10 })
	srv, addr := startServer(t, Options{Backend: store})
	cl := dial(t, addr)
	cl.send(t, "get warmme\r\n")
	got := cl.line(t)
	if !strings.HasPrefix(got, "VALUE warmme 0 10") {
		t.Fatalf("read-through get -> %q", got)
	}
	cl.body(t, got)
	if got := cl.line(t); got != "END" {
		t.Fatalf("end -> %q", got)
	}
	if store.Fetches() != 1 {
		t.Fatalf("fetches = %d, want 1", store.Fetches())
	}
	// Second get: served from cache, no new fetch.
	cl.send(t, "get warmme\r\n")
	cl.body(t, cl.line(t))
	cl.line(t)
	if store.Fetches() != 1 {
		t.Fatalf("fetches after cached get = %d, want 1", store.Fetches())
	}
	// A gets that misses and fills is one engine read, a miss, and answers
	// with the token of the item the fill stored.
	before := srv.c.Stats()
	cl.send(t, "gets k\r\n")
	header := cl.line(t)
	var flags, n int
	var cas uint64
	if _, err := fmt.Sscanf(header, "VALUE k %d %d %d", &flags, &n, &cas); err != nil || cas == 0 {
		t.Fatalf("read-through gets -> %q", header)
	}
	cl.body(t, header)
	cl.line(t) // END
	if st := srv.c.Stats(); st.Gets-before.Gets != 1 || st.Hits != before.Hits || st.Misses-before.Misses != 1 {
		t.Fatalf("one gets miss counted Gets +%d, Hits +%d, Misses +%d; want 1/0/1",
			st.Gets-before.Gets, st.Hits-before.Hits, st.Misses-before.Misses)
	}
	cl.send(t, fmt.Sprintf("cas k 0 0 1 %d\r\nx\r\n", cas))
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("cas with the fill's token -> %q", got)
	}
}

// TestReadThroughFillsReplyInPlace: a fetched miss is filled in place in
// the reply, for get and gets, small and past the connection's retained
// scratch (64 KiB), several in one pipelined batch. Every body is the
// backend's value, a gets miss carries the token its fill stored, and the
// repeat is a hit of the same bytes.
func TestReadThroughFillsReplyInPlace(t *testing.T) {
	sizes := map[uint64]int{}
	for _, k := range []string{"gs", "gm", "gl", "gxl", "cs", "cm", "cl", "cxl"} {
		sizes[kv.HashString(k)] = map[byte]int{'s': 10, 'm': 3000, 'l': 100 << 10, 'x': 300 << 10}[k[1]]
	}
	store := backend.New(penalty.Uniform(0.001), func(h uint64) int { return sizes[h] })
	_, addr := startServerCfg(t, cache.Config{CacheBytes: 16 << 20, StoreValues: true, WindowLen: 10_000}, Options{Backend: store})
	cl := dial(t, addr)
	read := func(keys []string, withCAS bool) (cas []uint64) {
		fields := 4 // VALUE key flags len [cas]
		if withCAS {
			fields = 5
		}
		for _, k := range keys {
			header := cl.line(t)
			f := strings.Fields(header)
			n := sizes[kv.HashString(k)]
			if len(f) != fields || f[1] != k || f[3] != strconv.Itoa(n) {
				t.Fatalf("header %q for %s", header, k)
			}
			if cl.body(t, header) != string(backend.Synthesize(kv.HashString(k), n)) {
				t.Fatalf("%s came back with another body", k)
			}
			if withCAS {
				c, _ := strconv.ParseUint(f[4], 10, 64)
				cas = append(cas, c)
			}
		}
		if got := cl.line(t); got != "END" {
			t.Fatalf("end -> %q", got)
		}
		return cas
	}
	gets, casKeys := []string{"gs", "gm", "gl", "gxl"}, []string{"cs", "cm", "cl", "cxl"}
	for round := 0; round < 2; round++ {
		cl.send(t, "get gs gm gl gxl\r\ngets cs cm cl cxl\r\n")
		read(gets, false)
		for i, c := range read(casKeys, true) {
			if c == 0 {
				t.Fatalf("round %d: gets %s carried no token", round, casKeys[i])
			}
		}
		if got := store.Fetches(); got != 8 {
			t.Fatalf("round %d: %d fetches, want 8", round, got)
		}
	}
	cl.send(t, "gets cl\r\n")
	cas := read([]string{"cl"}, true)
	cl.send(t, fmt.Sprintf("cas cl 0 0 1 %d\r\nx\r\n", cas[0]))
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("cas with the fill's token -> %q", got)
	}
}

// TestReadThroughFillKeepsConcurrentWrite holds a read-through fetch until a
// set of the same key on another connection has been answered STORED. The
// GET still answers with the value it fetched, but the fill must not replace
// the acknowledged write: the next get returns the client's value.
func TestReadThroughFillKeepsConcurrentWrite(t *testing.T) {
	fetching, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	store := backend.New(penalty.Uniform(0.001), func(uint64) int {
		once.Do(func() { close(fetching); <-release }) // the first fetch waits
		return 10
	})
	_, addr := startServer(t, Options{Backend: store})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // runs before the server's shutdown if the test stops early
	reader, writer := dial(t, addr), dial(t, addr)
	reader.send(t, "gets k\r\n")
	<-fetching
	writer.send(t, "set k 0 0 6\r\nclient\r\n")
	if got := writer.line(t); got != "STORED" {
		t.Fatalf("set during the fetch -> %q", got)
	}
	unblock()
	got := reader.line(t)
	if got != "VALUE k 0 10 0" {
		t.Errorf("gets overlapping a set -> %q, want the fetched value without a token", got)
	}
	reader.body(t, got)
	if got := reader.line(t); got != "END" {
		t.Fatalf("end -> %q", got)
	}
	writer.send(t, "get k\r\n")
	if got := writer.line(t); got != "VALUE k 0 6" {
		t.Fatalf("get after the fill -> %q", got)
	}
	if got := writer.line(t); got != "client" {
		t.Fatalf("the fill replaced an acknowledged write: %q", got)
	}
	writer.line(t) // END
}

func TestExptimeSemantics(t *testing.T) {
	now := time.Now().Unix()
	cases := []struct {
		exptime int64
		want    func(int64) bool
	}{
		{0, func(v int64) bool { return v == 0 }},
		{-5, func(v int64) bool { return v == 1 }},
		{60, func(v int64) bool { return v >= now+59 && v <= now+62 }},
		{now + 1e6, func(v int64) bool { return v == now+1e6 }},
	}
	for _, c := range cases {
		if got := expireAt(c.exptime); !c.want(got) {
			t.Errorf("expireAt(%d) = %d", c.exptime, got)
		}
	}
}

func TestSetWithExpiry(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	// Flags must be unsigned: the command line is rejected before the
	// data block is consumed, so the stray "x" line then parses as an
	// unknown command — the same recovery real Memcached applies to
	// garbage input.
	cl.send(t, "set gone -1 -1 1\r\nx\r\n")
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("negative flags accepted: %q", got)
	}
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("stray data line not rejected: %q", got)
	}
	// Negative exptime: stored but expired on arrival.
	cl.send(t, "set gone 0 -1 1\r\nx\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	cl.send(t, "get gone\r\n")
	if got := cl.line(t); got != "END" {
		t.Fatalf("expired-on-arrival item served: %q", got)
	}
}

func TestCASProtocol(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set k 0 0 2\r\nv1\r\n")
	cl.line(t)
	cl.send(t, "gets k\r\n")
	header := cl.line(t)
	parts := strings.Fields(header)
	if len(parts) != 5 || parts[0] != "VALUE" {
		t.Fatalf("gets header: %q", header)
	}
	cas := parts[4]
	cl.line(t) // body
	cl.line(t) // END
	// Wrong token -> EXISTS.
	cl.send(t, "cas k 0 0 2 99999999\r\nxx\r\n")
	if got := cl.line(t); got != "EXISTS" {
		t.Fatalf("stale cas -> %q", got)
	}
	// Right token -> STORED.
	cl.send(t, "cas k 0 0 2 "+cas+"\r\nv2\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("cas -> %q", got)
	}
	// Absent key -> NOT_FOUND.
	cl.send(t, "cas nope 0 0 1 1\r\nx\r\n")
	if got := cl.line(t); got != "NOT_FOUND" {
		t.Fatalf("cas absent -> %q", got)
	}
}

func TestAddReplaceProtocol(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "replace k 0 0 1\r\nx\r\n")
	if got := cl.line(t); got != "NOT_STORED" {
		t.Fatalf("replace absent -> %q", got)
	}
	cl.send(t, "add k 0 0 1\r\na\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("add -> %q", got)
	}
	cl.send(t, "add k 0 0 1\r\nb\r\n")
	if got := cl.line(t); got != "NOT_STORED" {
		t.Fatalf("second add -> %q", got)
	}
	cl.send(t, "replace k 0 0 1\r\nc\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("replace -> %q", got)
	}
}

func TestAppendPrependProtocol(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)

	// Concat on a missing key is NOT_STORED and must not create the item.
	cl.send(t, "append ghost 0 0 3\r\nxyz\r\n")
	if got := cl.line(t); got != "NOT_STORED" {
		t.Fatalf("append missing -> %q", got)
	}
	cl.send(t, "get ghost\r\n")
	if got := cl.line(t); got != "END" {
		t.Fatalf("append must not create: %q", got)
	}

	cl.send(t, "set k 7 0 3\r\nbar\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	// append concatenates on the right; the operand's flags are ignored and
	// the resident flags survive the rewrite.
	cl.send(t, "append k 999 0 3\r\nbaz\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("append -> %q", got)
	}
	cl.send(t, "get k\r\n")
	if got := cl.line(t); got != "VALUE k 7 6" {
		t.Fatalf("get header after append -> %q", got)
	}
	if got := cl.line(t); got != "barbaz" {
		t.Fatalf("get body after append -> %q", got)
	}
	cl.line(t) // END

	// prepend concatenates on the left, noreply stays silent.
	cl.send(t, "prepend k 0 0 3 noreply\r\nfoo\r\nget k\r\n")
	if got := cl.line(t); got != "VALUE k 7 9" {
		t.Fatalf("get header after prepend -> %q", got)
	}
	if got := cl.line(t); got != "foobarbaz" {
		t.Fatalf("get body after prepend -> %q", got)
	}
	cl.line(t) // END

	// The rewrite bumps the CAS token: a gets before the append must lose.
	cl.send(t, "gets k\r\n")
	header := cl.line(t)
	var flags, n int
	var cas uint64
	if _, err := fmt.Sscanf(header, "VALUE k %d %d %d", &flags, &n, &cas); err != nil {
		t.Fatalf("gets header %q: %v", header, err)
	}
	cl.line(t) // body
	cl.line(t) // END
	cl.send(t, "append k 0 0 1\r\n!\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("append -> %q", got)
	}
	cl.send(t, fmt.Sprintf("cas k 0 0 1 %d\r\nZ\r\n", cas))
	if got := cl.line(t); got != "EXISTS" {
		t.Fatalf("stale cas after append -> %q", got)
	}
}

// TestConcurrentAppendKeepsEveryFragment appends distinct fragments to one
// key from several connections at once: every one of the 800 appends must be
// answered STORED, and the final value must hold each fragment exactly once.
func TestConcurrentAppendKeepsEveryFragment(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set log 0 0 0\r\n\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	var mu sync.Mutex
	stored := map[string]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			// Bursts of ten keep every connection's batch loop
			// appending at the same time.
			for i := 0; i < 100; i += 10 {
				var burst []string
				var req strings.Builder
				for j := i; j < i+10; j++ {
					frag := fmt.Sprintf("%d.%03d;", g, j)
					burst = append(burst, frag)
					fmt.Fprintf(&req, "append log 0 0 %d\r\n%s\r\n", len(frag), frag)
				}
				if _, err := conn.Write([]byte(req.String())); err != nil {
					t.Error(err)
					return
				}
				for _, frag := range burst {
					l, err := r.ReadString('\n')
					if err != nil {
						t.Error(err)
						return
					}
					if l != "STORED\r\n" {
						t.Errorf("append %q -> %q", frag, l)
						continue
					}
					mu.Lock()
					stored[frag] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	cl.send(t, "get log\r\n")
	cl.line(t) // VALUE
	body := cl.line(t)
	cl.line(t) // END
	frags := strings.SplitAfter(body, ";")
	frags = frags[:len(frags)-1] // the empty tail after the last separator
	seen := map[string]bool{}
	for _, f := range frags {
		if !stored[f] {
			t.Errorf("value holds %q, which was never answered STORED", f)
		}
		if seen[f] {
			t.Errorf("fragment %q appears twice", f)
		}
		seen[f] = true
	}
	if len(seen) != len(stored) || len(stored) != 800 {
		t.Fatalf("%d of %d STORED fragments survive in the value, of 800 appended", len(seen), len(stored))
	}
}

func TestIncrDecrProtocol(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set n 0 0 2\r\n10\r\n")
	cl.line(t)
	cl.send(t, "incr n 7\r\n")
	if got := cl.line(t); got != "17" {
		t.Fatalf("incr -> %q", got)
	}
	cl.send(t, "decr n 20\r\n")
	if got := cl.line(t); got != "0" {
		t.Fatalf("decr -> %q", got)
	}
	cl.send(t, "incr missing 1\r\n")
	if got := cl.line(t); got != "NOT_FOUND" {
		t.Fatalf("incr missing -> %q", got)
	}
	cl.send(t, "set s 0 0 3\r\nabc\r\nincr s 1\r\n")
	cl.line(t)
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("incr text -> %q", got)
	}
	cl.send(t, "incr n notanumber\r\n")
	if got := cl.line(t); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad delta -> %q", got)
	}
}

func TestTouchProtocol(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "set k 0 0 1\r\nx\r\n")
	cl.line(t)
	cl.send(t, "touch k 100\r\n")
	if got := cl.line(t); got != "TOUCHED" {
		t.Fatalf("touch -> %q", got)
	}
	cl.send(t, "touch missing 100\r\n")
	if got := cl.line(t); got != "NOT_FOUND" {
		t.Fatalf("touch missing -> %q", got)
	}
}

func TestQuitClosesConnection(t *testing.T) {
	_, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "quit\r\n")
	if _, err := cl.r.ReadString('\n'); err == nil {
		t.Fatal("connection should close after quit")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d-%d", g, i)
				fmt.Fprintf(conn, "set %s 0 0 3\r\nabc\r\nget %s\r\n", key, key)
				if l, _ := r.ReadString('\n'); !strings.HasPrefix(l, "STORED") {
					t.Errorf("set -> %q", l)
					return
				}
				r.ReadString('\n') // VALUE
				r.ReadString('\n') // body
				r.ReadString('\n') // END
			}
		}(g)
	}
	wg.Wait()
}

func TestServerOverShardGroup(t *testing.T) {
	g, err := shard.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  1 << 22,
		StoreValues: true,
		WindowLen:   10_000,
	}, 4, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	cl := dial(t, ln.Addr().String())
	for i := 0; i < 40; i++ {
		cl.send(t, fmt.Sprintf("set sk%d 0 0 1\r\nx\r\n", i))
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("sharded set -> %q", got)
		}
	}
	cl.send(t, "get sk7\r\n")
	if got := cl.line(t); got != "VALUE sk7 0 1" {
		t.Fatalf("sharded get -> %q", got)
	}
	cl.line(t)
	cl.line(t)
	cl.send(t, "stats\r\n")
	found := false
	for {
		l := cl.line(t)
		if l == "END" {
			break
		}
		if l == "STAT cmd_set 40" {
			found = true
		}
	}
	if !found {
		t.Fatal("aggregated shard stats missing")
	}
}

func TestAddrAndDoubleServe(t *testing.T) {
	srv, addr := startServer(t, Options{})
	deadline := time.Now().Add(2 * time.Second)
	for srv.Addr() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // Serve runs in a goroutine; wait for it to bind
	}
	if got := srv.Addr(); got != addr {
		t.Fatalf("Addr = %q, want %q", got, addr)
	}
	srv.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown accepted")
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	c, err := cache.New(cache.Config{CacheBytes: 2 << 20}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c, Options{})
	if err := srv.ListenAndServe("999.999.999.999:1"); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestShutdownUnblocksServe(t *testing.T) {
	srv, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "version\r\n")
	cl.line(t)
	srv.Shutdown()
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
