package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testOpts returns the flag defaults scaled down for tests.
func testOpts(addr, policy string, shards int) options {
	return options{
		addr:       addr,
		cacheMiB:   16,
		policyKind: policy,
		shards:     shards,
	}
}

// TestValidateFlagCombinations is the flag-compatibility table: every
// refused combination must fail fast with a message naming the flags,
// and the legitimate combinations must pass.
func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(o *options)
		wantErr string // "" = combination is valid
	}{
		{"defaults", func(o *options) {}, ""},
		{"static peers", func(o *options) { o.peers = "a:1,b:2" }, ""},
		{"join", func(o *options) { o.join = "a:1" }, ""},
		{"peers with membership", func(o *options) { o.peers = "a:1,b:2"; o.membershipOn = true }, ""},
		{"tenants alone", func(o *options) { o.tenants = "web:8:1" }, ""},
		{"shards alone", func(o *options) { o.shards = 4 }, ""},
		{"snapshot single shard", func(o *options) { o.snapshot = "/tmp/x" }, ""},
		{"snapshot multi shard", func(o *options) { o.snapshot = "/tmp/x"; o.shards = 2 }, ""},
		{"tenants with shards", func(o *options) { o.tenants = "web:8:1"; o.shards = 2 }, ""},
		{"tenants with snapshot", func(o *options) { o.tenants = "web:8:1"; o.snapshot = "/tmp/x" }, ""},
		{"tenants with peers", func(o *options) { o.tenants = "web:8:1"; o.peers = "a:1,b:2" }, ""},
		{"tenants with join", func(o *options) { o.tenants = "web:8:1"; o.join = "a:1" }, ""},
		{"tenants with membership only", func(o *options) { o.tenants = "web:8:1"; o.membershipOn = true }, "-membership"},
		{"join with peers", func(o *options) { o.join = "a:1"; o.peers = "a:1,b:2" }, "-join"},
		{"membership without cluster", func(o *options) { o.membershipOn = true }, "-membership"},
		{"secret with membership", func(o *options) { o.peers = "a:1,b:2"; o.membershipOn = true; o.memSecret = "tok" }, ""},
		{"secret with join", func(o *options) { o.join = "a:1"; o.memSecret = "tok" }, ""},
		{"secret without membership", func(o *options) { o.memSecret = "tok" }, "-membership-secret"},
		{"secret on static peers", func(o *options) { o.peers = "a:1,b:2"; o.memSecret = "tok" }, "-membership-secret"},
		{"secret with whitespace", func(o *options) { o.join = "a:1"; o.memSecret = "bad tok" }, "-membership-secret"},
		{"serve-stale with a buffer", func(o *options) { o.staleMiB = 1 }, ""},
		{"serve-stale with no buffer", func(o *options) { o.staleMiB = 0 }, ""}, // 0 turns serve-stale off
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOpts("127.0.0.1:0", "pama", 1)
			tc.mutate(&o)
			err := validate(o)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid combination refused: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid combination accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}

// parseArgs parses argv with pama-server's own flag set.
func parseArgs(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("pama-server", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return *o
}

// TestNormalizeShardsDefault covers the -shards default as parsed from a real
// argv: the core count unless the operator asks otherwise, whatever else is
// set — -snapshot restores into any layout, so it no longer moves the default
// — and every row is a valid combination.
func TestNormalizeShardsDefault(t *testing.T) {
	cpus := runtime.NumCPU()
	cases := []struct {
		name       string
		args       []string
		wantShards int
	}{
		{"default alone keeps core count", nil, cpus},
		{"default kept with snapshot", []string{"-snapshot", "/tmp/x"}, cpus},
		{"default survives tenants", []string{"-tenants", "web:8:1"}, cpus},
		{"explicit survives", []string{"-shards", "8"}, 8},
		{"explicit accepted with snapshot", []string{"-shards", "8", "-snapshot", "/tmp/x"}, 8},
		{"explicit accepted with tenants", []string{"-shards", "8", "-tenants", "web:8:1"}, 8},
		{"explicit single shard with snapshot", []string{"-shards", "1", "-snapshot", "/tmp/x"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := parseArgs(t, tc.args...)
			if o.shards != tc.wantShards {
				t.Fatalf("-shards parsed as %d, want %d", o.shards, tc.wantShards)
			}
			if err := validate(o); err != nil {
				t.Fatalf("valid combination refused: %v", err)
			}
		})
	}
}

// TestFlagNames pins pama-server's flag set, so a flag added or removed shows
// up here as a visible diff.
func TestFlagNames(t *testing.T) {
	fs := flag.NewFlagSet("pama-server", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // in lexical order
	want := []string{
		"addr", "admin-addr", "arbiter-interval", "cache", "drain-timeout",
		"fault-err-rate", "fault-seed", "fault-spike-rate", "fault-spike-sleep",
		"fetch-backoff", "fetch-retries", "fetch-timeout", "join",
		"max-conns", "max-inflight", "max-pipeline", "membership", "membership-secret",
		"overload", "peers", "penalty-scale", "policy", "probe-interval",
		"read-timeout", "readthrough", "self", "shards", "snapshot",
		"stale-buffer", "target-p99", "tenants", "write-timeout",
	}
	if len(want) != 32 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}

// freeAddr returns a loopback address whose port was free a moment ago; run
// binds it itself (a tiny race window is acceptable in tests).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startRun runs o in a goroutine (run blocks in ListenAndServe; the server
// is left serving) and returns a connection to it once it accepts one, and
// the channel run's error arrives on should it return.
func startRun(t *testing.T, o options) (net.Conn, <-chan error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- run(o) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		conn, err := net.Dial("tcp", o.addr)
		if err == nil {
			t.Cleanup(func() { conn.Close() })
			return conn, errc
		}
		select {
		case e := <-errc:
			t.Fatalf("server exited early: %v", e)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
	}
}

// TestRunRejectsTenantsWithCluster (named for the refusal it replaced) boots
// two run() nodes with the same -tenants spec and -peers list: keys of both
// tenants written through one node read back through the other, and each key
// is resident on one node only, its ring owner.
func TestRunRejectsTenantsWithCluster(t *testing.T) {
	addrs := []string{freeAddr(t), freeAddr(t)}
	conns := make([]*bufio.ReadWriter, len(addrs))
	for i, addr := range addrs {
		o := testOpts(addr, "pama", 1)
		o.tenants = "gold:1:3:0"
		o.peers = strings.Join(addrs, ",")
		conn, _ := startRun(t, o)
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		conns[i] = bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	}
	roundTrip := func(rw *bufio.ReadWriter, req, end string) string {
		t.Helper()
		rw.WriteString(req)
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		var reply strings.Builder
		for !strings.HasSuffix(reply.String(), end) {
			l, err := rw.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: %v after %q", req, err, reply.String())
			}
			reply.WriteString(l)
		}
		return reply.String()
	}
	const n = 200
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if i%2 == 0 {
			key = "gold/" + key
		}
		if got := roundTrip(conns[0], fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(key), key), "\r\n"); got != "STORED\r\n" {
			t.Fatalf("set %s via node 0 -> %q", key, got)
		}
		if got, want := roundTrip(conns[1], "get "+key+"\r\n", "END\r\n"), fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", key, len(key), key); got != want {
			t.Fatalf("get %s via node 1 -> %q, want %q", key, got, want)
		}
	}
	items := 0
	for i, rw := range conns {
		stats := roundTrip(rw, "stats\r\n", "END\r\n")
		var held int
		for _, l := range strings.Split(stats, "\r\n") {
			if f := strings.Fields(l); len(f) == 3 && f[1] == "curr_items" {
				held, _ = strconv.Atoi(f[2])
			}
		}
		if held == 0 || held == n {
			t.Errorf("node %d holds %d of %d keys: the ring should split them", i, held, n)
		}
		items += held
	}
	if items != n {
		t.Fatalf("nodes hold %d items between them, want each of the %d keys once", items, n)
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	if err := run(testOpts("127.0.0.1:0", "bogus", 1)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRunRejectsBadAddr(t *testing.T) {
	if err := run(testOpts("256.256.256.256:99999", "pama", 1)); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestRunServesTraffic boots the real binary path (run blocks in
// ListenAndServe, so it runs in a goroutine) on an ephemeral port in every
// mode run can build a store or a fetch path for, and serves each real load:
// one connection pipelining 90 000 SETs and GETs of seven value sizes (seven
// slab classes) over a key space four times the 4 MiB cache, so every row
// fills its stacks, evicts and migrates slabs. Every reply must be one the
// command calls for, run must still be serving afterwards, and the in-band
// stats must add up — run hands out no engine handle. Shutdown is exercised
// via the listener teardown at process exit; the goroutines are intentionally
// left serving.
func TestRunServesTraffic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(o *options)
		// prefixes are the tenant prefixes keys are spread over.
		prefixes []string
		// refusal is the one SERVER_ERROR the mode may answer a command with
		// ("" = none); nonzero names stats the mode must have moved.
		refusal string
		nonzero []string
	}{
		{"two shards", func(o *options) {}, []string{""}, "", nil},
		{"tenants over two shards each", func(o *options) {
			o.tenants = "gold:1:3:0,bronze:1:1:2"
		}, []string{"gold/", "bronze/", "", "nobody/"}, "", nil},
		{"readthrough", func(o *options) { o.readthrough, o.shards = true, 1 }, []string{""}, "", nil},
		{"readthrough serving stale under faults", func(o *options) {
			o.readthrough, o.shards = true, 1
			o.staleMiB, o.faultErrRate, o.faultSeed = 1, 0.2, 1
		}, []string{""}, "", []string{"backend_failures", "stale_serves"}},
		{"overload control", func(o *options) { o.overloadOn = true }, []string{""},
			"SERVER_ERROR busy (shed)", []string{"overload_admitted"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := testOpts(freeAddr(t), "pama", 2)
			o.cacheMiB = 4
			tc.mutate(&o)
			conn, errc := startRun(t, o)
			conn.SetDeadline(time.Now().Add(30 * time.Second))

			// The load: op i is a store (three in four: a SET, or one time in
			// four an append of nothing, which reads the key as gets does and
			// stores it back by cas) or a read (get and gets by turns) of a
			// pseudo-random key id; a key's value size follows from its id, so
			// a hit can be checked against it.
			const ops, keys = 90_000, 19_000 // mean value ~880 B: ~16 MiB of keys
			const (
				opSet = iota
				opAppend
				opGet
				opGets
			)
			sizes := [...]int{40, 100, 200, 400, 800, 1600, 3000}
			op := func(i int) (kind int, key string, size int) {
				x := uint32(i) * 2654435761
				id := int(x>>8) % keys
				switch {
				case x&3 == 0:
					kind = opGet + int(x>>2&1)
				case x>>3&3 == 0:
					kind = opAppend
				}
				return kind, tc.prefixes[id%len(tc.prefixes)] + "k" + strconv.Itoa(id), sizes[id%len(sizes)]
			}
			go func() { // the writer; the test goroutine reads, so neither side's buffers can wedge
				w := bufio.NewWriterSize(conn, 64<<10)
				body := bytes.Repeat([]byte("v"), sizes[len(sizes)-1])
				for i := 0; i < ops; i++ {
					switch kind, key, size := op(i); kind {
					case opSet:
						fmt.Fprintf(w, "set %s 0 0 %d\r\n%s\r\n", key, size, body[:size])
					case opAppend:
						fmt.Fprintf(w, "append %s 0 0 0\r\n\r\n", key)
					case opGet:
						fmt.Fprintf(w, "get %s\r\n", key)
					case opGets:
						fmt.Fprintf(w, "gets %s\r\n", key)
					}
				}
				w.WriteString("stats\r\n")
				w.Flush() // an error here shows up as the reader's
			}()
			r := bufio.NewReaderSize(conn, 64<<10)
			line := func(i int) string {
				l, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				return strings.TrimRight(l, "\r\n")
			}
			sets, stored := 0, 0
			for i := 0; i < ops; i++ {
				kind, key, size := op(i)
				if kind == opSet {
					sets++
				}
				read := kind >= opGet
				l := line(i)
				switch {
				case tc.refusal != "" && strings.HasPrefix(l, tc.refusal):
				case kind == opSet && l == "STORED":
					stored++
				case kind == opAppend && (l == "STORED" || l == "NOT_STORED"):
				case read && l == "END":
				case read && strings.HasPrefix(l, "VALUE "+key+" 0 "):
					f := strings.Fields(l[len("VALUE "+key+" 0 "):]) // the size; after it a gets has the token
					n, err := strconv.Atoi(f[0])
					if err != nil || len(f) != 1+kind-opGet || (n != size && !o.readthrough) { // a fill is sized by the back end
						t.Fatalf("op %d: kind %d of %s -> %q, want %d bytes", i, kind, key, l, size)
					}
					if _, err := r.Discard(n + 2); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if l = line(i); l != "END" {
						t.Fatalf("op %d: read of %s ends %q", i, key, l)
					}
				default:
					t.Fatalf("op %d (kind %d of %s, %d bytes) -> %q", i, kind, key, size, l)
				}
			}
			stat := map[string]int{}
			for l := line(ops); l != "END"; l = line(ops) {
				if f := strings.Fields(l); len(f) == 3 && f[0] == "STAT" {
					stat[f[1]], _ = strconv.Atoi(f[2])
				}
			}
			if stored*2 < sets {
				t.Fatalf("only %d of %d stores were taken", stored, sets)
			}
			for _, name := range append([]string{"evictions", "curr_items", "cmd_get"}, tc.nonzero...) {
				if stat[name] == 0 {
					t.Errorf("stats: %s is 0", name)
				}
			}
			if stat["get_hits"]+stat["get_misses"] != stat["cmd_get"] || stat["client_errors"] != 0 ||
				(tc.refusal == "" && stat["server_errors"] != 0) {
				t.Errorf("stats do not add up")
			}
			if t.Failed() {
				t.Fatalf("stats: %v", stat)
			}
			select {
			case e := <-errc:
				t.Fatalf("server exited under load: %v", e)
			default:
			}
		})
	}
}
