package main

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

	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/server"
)

func startTestServer(t *testing.T) string {
	t.Helper()
	c, err := cache.New(cache.Config{
		CacheBytes:  32 << 20,
		StoreValues: true,
		WindowLen:   50_000,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(c, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

// fakeRedis is a tiny in-process RESP2 server: enough of SET/GET over a
// string map to benchmark the redis driver without a redis binary.
func fakeRedis(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	store := map[string][]byte{}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				r := bufio.NewReader(nc)
				w := bufio.NewWriter(nc)
				readBulk := func() ([]byte, bool) {
					l, err := r.ReadString('\n')
					if err != nil || len(l) < 2 || l[0] != '$' {
						return nil, false
					}
					n, err := strconv.Atoi(strings.TrimRight(l[1:], "\r\n"))
					if err != nil || n < 0 {
						return nil, false
					}
					buf := make([]byte, n+2)
					if _, err := io.ReadFull(r, buf); err != nil {
						return nil, false
					}
					return buf[:n], true
				}
				for {
					l, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if len(l) < 2 || l[0] != '*' {
						return
					}
					argc, err := strconv.Atoi(strings.TrimRight(l[1:], "\r\n"))
					if err != nil || argc < 1 {
						return
					}
					args := make([][]byte, 0, argc)
					ok := true
					for i := 0; i < argc; i++ {
						a, k := readBulk()
						if !k {
							ok = false
							break
						}
						args = append(args, a)
					}
					if !ok {
						return
					}
					switch strings.ToUpper(string(args[0])) {
					case "SET":
						mu.Lock()
						store[string(args[1])] = append([]byte(nil), args[2]...)
						mu.Unlock()
						w.WriteString("+OK\r\n")
					case "GET":
						mu.Lock()
						v, hit := store[string(args[1])]
						mu.Unlock()
						if hit {
							fmt.Fprintf(w, "$%d\r\n%s\r\n", len(v), v)
						} else {
							w.WriteString("$-1\r\n")
						}
					default:
						w.WriteString("-ERR unknown command\r\n")
					}
					if r.Buffered() == 0 {
						if err := w.Flush(); err != nil {
							return
						}
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

func testConfig(protocol, addr string) config {
	return config{
		protocol:   protocol,
		addrs:      []string{addr},
		ops:        []string{"set", "get", "mixed"},
		clients:    4,
		requests:   4000,
		valueSizes: []int{64, 512},
		keyspaces:  []int{512},
		pipeline:   8,
		getRatio:   0.9,
	}
}

// parseCSV splits the harness output into header and rows.
func parseCSV(t *testing.T, out string) (string, [][]string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("csv too short:\n%s", out)
	}
	var rows [][]string
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	return lines[0], rows
}

// checkRows asserts the schema and sanity of every data row.
func checkRows(t *testing.T, header string, rows [][]string, wantRows int) {
	t.Helper()
	if header != csvHeader {
		t.Fatalf("header %q, want %q", header, csvHeader)
	}
	nFields := len(strings.Split(csvHeader, ","))
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if len(r) != nFields {
			t.Fatalf("row has %d fields, want %d: %v", len(r), nFields, r)
		}
		ops, err := strconv.ParseFloat(r[6], 64)
		if err != nil || ops <= 0 {
			t.Fatalf("ops_per_sec %q not positive", r[6])
		}
		if errs, err := strconv.Atoi(r[11]); err != nil || errs != 0 {
			t.Fatalf("errors column %q, want 0", r[11])
		}
		if r[1] == "get" {
			hr, err := strconv.ParseFloat(r[10], 64)
			if err != nil || hr < 0.99 {
				t.Fatalf("get hit_ratio %q, want ~1 on a seeded keyspace", r[10])
			}
		}
	}
}

// TestIperfPamakvAndMemcTextIdenticalSchema is the acceptance check: the
// pamakv and memc-txt protocols, driven against the same pama-server, emit
// byte-identical CSV schemas and equally sane rows.
func TestIperfPamakvAndMemcTextIdenticalSchema(t *testing.T) {
	addr := startTestServer(t)

	var pama, memc strings.Builder
	if err := run(&pama, testConfig("pamakv", addr)); err != nil {
		t.Fatal(err)
	}
	if err := run(&memc, testConfig("memc-txt", addr)); err != nil {
		t.Fatal(err)
	}
	const wantRows = 2 * 1 * 3 // sizes × keyspaces × ops
	ph, prows := parseCSV(t, pama.String())
	mh, mrows := parseCSV(t, memc.String())
	checkRows(t, ph, prows, wantRows)
	checkRows(t, mh, mrows, wantRows)
	if ph != mh {
		t.Fatalf("schemas diverge:\n%s\n%s", ph, mh)
	}
	for i := range prows {
		if prows[i][1] != mrows[i][1] || prows[i][3] != mrows[i][3] || prows[i][4] != mrows[i][4] {
			t.Fatalf("row %d keys diverge: %v vs %v", i, prows[i], mrows[i])
		}
	}
}

// TestIperfShardedPamakv drives the pamakv protocol across two servers with
// client-side sharding.
func TestIperfShardedPamakv(t *testing.T) {
	addr1 := startTestServer(t)
	addr2 := startTestServer(t)
	cfg := testConfig("pamakv", "")
	cfg.addrs = []string{addr1, addr2}
	cfg.shard = "ring"
	cfg.valueSizes = []int{64}
	var sb strings.Builder
	if err := run(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	h, rows := parseCSV(t, sb.String())
	checkRows(t, h, rows, 3)
}

// TestIperfRedisDriver runs the redis driver against the fake RESP server.
func TestIperfRedisDriver(t *testing.T) {
	addr := fakeRedis(t)
	cfg := testConfig("redis", addr)
	cfg.valueSizes = []int{64}
	var sb strings.Builder
	if err := run(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	h, rows := parseCSV(t, sb.String())
	checkRows(t, h, rows, 3)
}

// TestIperfNoHeader checks -no-header output appends cleanly.
func TestIperfNoHeader(t *testing.T) {
	addr := startTestServer(t)
	cfg := testConfig("pamakv", addr)
	cfg.noHeader = true
	cfg.ops = []string{"set"}
	cfg.valueSizes = []int{64}
	var sb strings.Builder
	if err := run(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(sb.String())
	if strings.Contains(out, "label,") {
		t.Fatalf("header leaked with noHeader:\n%s", out)
	}
	if lines := strings.Split(out, "\n"); len(lines) != 1 {
		t.Fatalf("want exactly one row, got %d:\n%s", len(lines), out)
	}
}

// TestIperfFailedOperationsAreNotThroughput: a server that answers N stores
// and then goes away. The row must count the N answered operations only — the
// rest are the errors column — and run must report the failure after printing
// it. The server holds its last connection open for a fixed pause before it
// closes, so the phase lasts at least that long and the N answered stores bound
// ops_per_sec from above; counting the failed ones (the old behaviour) would
// put it an order of magnitude over the bound.
func TestIperfFailedOperationsAreNotThroughput(t *testing.T) {
	const answered, requested, pause = 100, 2000, 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		defer ln.Close() // later dials are refused, not left waiting
		r := bufio.NewReader(nc)
		for i := 0; i < answered; i++ {
			for lines := 0; lines < 2; lines++ { // command line, data block
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
			if _, err := io.WriteString(nc, "STORED\r\n"); err != nil {
				return
			}
		}
		time.Sleep(pause)
	}()

	cfg := testConfig("memc-txt", ln.Addr().String())
	cfg.ops = []string{"set"}
	cfg.clients = 1
	cfg.requests = requested
	cfg.valueSizes = []int{64}
	var sb strings.Builder
	err = run(&sb, cfg)
	if err == nil || !strings.Contains(err.Error(), "operations failed") {
		t.Fatalf("run = %v, want the failed-operations error", err)
	}
	_, rows := parseCSV(t, sb.String())
	if len(rows) != 1 {
		t.Fatalf("want the row printed before the error, got:\n%s", sb.String())
	}
	if got := rows[0][11]; got != strconv.Itoa(requested-answered) {
		t.Fatalf("errors column %s, want %d", got, requested-answered)
	}
	ops, err := strconv.ParseFloat(rows[0][6], 64)
	if err != nil || ops <= 0 || ops > answered/pause.Seconds() {
		t.Fatalf("ops_per_sec %q, want within (0, %.0f]: only %d operations were answered over at least %v",
			rows[0][6], answered/pause.Seconds(), answered, pause)
	}
}

// TestIperfBadConfig covers the error paths.
func TestIperfBadConfig(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig("nope", "127.0.0.1:1")
	if err := run(&sb, cfg); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	cfg = testConfig("memc-txt", "127.0.0.1:1")
	cfg.addrs = []string{"a", "b"}
	if err := run(&sb, cfg); err == nil {
		t.Fatal("memc-txt with two addrs accepted")
	}
	cfg = testConfig("pamakv", "127.0.0.1:1")
	cfg.ops = []string{"frob"}
	if err := run(&sb, cfg); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := parseIntList("12,x"); err == nil {
		t.Fatal("bad int list accepted")
	}
}
