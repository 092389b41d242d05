package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/client"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/proto"
	"pamakv/internal/server"
	"pamakv/internal/tenant"
	"pamakv/internal/workload"
)

func testCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{
		CacheBytes:  32 << 20,
		StoreValues: true,
		WindowLen:   50_000,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serve runs srv on ln until the test ends.
func serve(t *testing.T, ln net.Listener, srv *server.Server) string {
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

// startTestServer runs a plain pama-server and returns its address and engine.
func startTestServer(t *testing.T) (string, *cache.Cache) {
	t.Helper()
	c := testCache(t)
	return serve(t, listen(t), server.New(c, server.Options{})), c
}

// fakeRedis is a tiny in-process RESP2 server: enough of SET/GET/DEL over a
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
					case "DEL":
						mu.Lock()
						_, hit := store[string(args[1])]
						delete(store, string(args[1]))
						mu.Unlock()
						if hit {
							w.WriteString(":1\r\n")
						} else {
							w.WriteString(":0\r\n")
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
		ops:        []string{"set", "get", "mixed", "workload"},
		clients:    4,
		requests:   4000,
		valueSizes: []int{64, 512},
		keyspaces:  []int{512},
		pipeline:   8,
		getRatio:   0.9,
		workload:   "etc",
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
	addr, _ := startTestServer(t)

	var pama, memc strings.Builder
	if err := run(&pama, testConfig("pamakv", addr)); err != nil {
		t.Fatal(err)
	}
	if err := run(&memc, testConfig("memc-txt", addr)); err != nil {
		t.Fatal(err)
	}
	const wantRows = 2*1*3 + 1 // sizes × keyspaces × ops, and one workload row
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
	addr1, _ := startTestServer(t)
	addr2, _ := startTestServer(t)
	cfg := testConfig("pamakv", "")
	cfg.addrs = []string{addr1, addr2}
	cfg.valueSizes = []int{64}
	var sb strings.Builder
	if err := run(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	h, rows := parseCSV(t, sb.String())
	checkRows(t, h, rows, 4)
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
	checkRows(t, h, rows, 4)
}

// TestIperfNoHeader checks -no-header output appends cleanly.
func TestIperfNoHeader(t *testing.T) {
	addr, _ := startTestServer(t)
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

// TestIperfWorkloadErrors: the workload phase rejects an unknown workload and
// fails against an unreachable server.
func TestIperfWorkloadErrors(t *testing.T) {
	var sb strings.Builder
	cfg := testConfig("pamakv", "127.0.0.1:1")
	cfg.workload = "bogus"
	if err := run(&sb, cfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
	cfg = testConfig("pamakv", "127.0.0.1:1")
	cfg.ops, cfg.requests = []string{"workload"}, 100
	if err := run(&sb, cfg); err == nil || !strings.Contains(err.Error(), "operations failed") {
		t.Fatalf("unreachable server: run = %v, want the failed-operations error", err)
	}
}

// field reads a row's column by name.
func field(t *testing.T, r []string, name string) float64 {
	t.Helper()
	for i, h := range strings.Split(csvHeader, ",") {
		if h == name {
			v, err := strconv.ParseFloat(r[i], 64)
			if err != nil {
				t.Fatalf("%s %q: %v", name, r[i], err)
			}
			return v
		}
	}
	t.Fatalf("no column %q", name)
	return 0
}

// runRows runs cfg and returns its data rows; any failed operation fails the
// test.
func runRows(t *testing.T, cfg config) [][]string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, cfg); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	h, rows := parseCSV(t, sb.String())
	if h != csvHeader {
		t.Fatalf("header %q", h)
	}
	return rows
}

// TestIperfRequestsSplitExactly: the phase runs exactly -requests operations
// however they divide among the clients.
func TestIperfRequestsSplitExactly(t *testing.T) {
	for _, tc := range []struct{ requests, clients int }{
		{64, 8},
		{100, 8}, // 12 each would run 96
		{5, 8},   // 1 each would run 8
	} {
		addr, c := startTestServer(t)
		cfg := testConfig("pamakv", addr)
		cfg.ops, cfg.valueSizes = []string{"set"}, []int{64}
		cfg.requests, cfg.clients = tc.requests, tc.clients
		runRows(t, cfg)
		if got := c.Stats().Sets; got != uint64(tc.requests) {
			t.Errorf("-requests %d -clients %d: server stored %d", tc.requests, tc.clients, got)
		}
	}
}

// sheddingServer is a scripted overloaded server: on each connection every
// nth GET is answered with the shed line and every other one hits. Pipelined
// batches against it carry sheds mid-batch, which must neither fail the rest
// of the batch nor leave replies behind for the next one.
func sheddingServer(t *testing.T, n int) string {
	t.Helper()
	ln := listen(t)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				r := bufio.NewReaderSize(nc, 1<<14)
				p := proto.NewParser(r)
				w := bufio.NewWriterSize(nc, 1<<14)
				gets := 0
				var out []byte
				for {
					cmd, err := p.ReadCommand()
					if err != nil {
						return
					}
					out = out[:0]
					switch cmd.Verb {
					case proto.VerbGet:
						if gets++; gets%n == 0 {
							out = proto.AppendShed(out)
						} else {
							out = proto.AppendEnd(proto.AppendValue(out, cmd.Keys[0], 0, []byte("v")))
						}
					case proto.VerbSet:
						out = proto.AppendLine(out, "STORED")
					default:
						out = proto.AppendLine(out, "ERROR")
					}
					w.Write(out)
					// Flush only when the burst is drained, like a real
					// pipelining server.
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

// TestIperfShedsAreAnswers: against a server shedding every third GET, a
// pipelined get phase and a storm (pipelined workload phase) book a third of
// the operations as sheds and two thirds as hits, with no errors — on the
// pamakv client and on the text baseline alike.
func TestIperfShedsAreAnswers(t *testing.T) {
	const requests = 2400
	for _, protocol := range []string{"pamakv", "memc-txt"} {
		for _, op := range []string{"get", "workload"} {
			cfg := testConfig(protocol, sheddingServer(t, 3))
			cfg.ops, cfg.valueSizes, cfg.requests = []string{op}, []int{64}, requests
			r := runRows(t, cfg)[0]
			sheds, hits, errs := field(t, r, "sheds")/requests, field(t, r, "hit_ratio"), field(t, r, "errors")
			if math.Abs(sheds-1.0/3) > 0.01 || math.Abs(hits-2.0/3) > 0.01 || errs != 0 {
				t.Errorf("%s %s: shed share %.4f, hit ratio %.4f, errors %v; want 1/3, 2/3, 0", protocol, op, sheds, hits, errs)
			}
		}
	}
}

// TestIperfWorkloadAgainstLiveServer: a hot workload phase refills its misses,
// so it hits, and nothing fails.
func TestIperfWorkloadAgainstLiveServer(t *testing.T) {
	addr, _ := startTestServer(t)
	cfg := testConfig("pamakv", addr)
	cfg.ops, cfg.clients, cfg.pipeline, cfg.keyspaces = []string{"workload"}, 2, 1, []int{2048}
	r := runRows(t, cfg)[0]
	if field(t, r, "hit_ratio") == 0 || field(t, r, "errors") != 0 || field(t, r, "value_bytes") != 0 {
		t.Fatalf("implausible workload row %v", r)
	}
}

// TestIperfWorkloadSizes: the workload phase stores the model's value sizes.
func TestIperfWorkloadSizes(t *testing.T) {
	addr, _ := startTestServer(t)
	const keys = 512
	cfg := testConfig("pamakv", addr)
	cfg.ops, cfg.workload, cfg.clients, cfg.pipeline = []string{"workload"}, "sys", 1, 1
	cfg.requests, cfg.keyspaces = 2000, []int{keys}
	runRows(t, cfg)
	c, err := client.New(client.Config{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	model := workload.SYS()
	sizes := map[int]bool{}
	for id := uint64(0); id < keys; id++ {
		it, err := c.Get(benchKey(id))
		if errors.Is(err, client.ErrCacheMiss) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want := min(model.SizeOf(kv.HashString(kv.KeyString(id))), maxModelValue)
		if len(it.Value) != want {
			t.Fatalf("key %d holds %d bytes, model size %d", id, len(it.Value), want)
		}
		sizes[want] = true
	}
	if len(sizes) < 10 {
		t.Fatalf("only %d distinct value sizes stored", len(sizes))
	}
}

// TestIperfShardsAcrossCluster: several -addrs shard keys client-side with the
// ring the servers build by default, so every request lands on its owner and
// the cluster never forwards.
func TestIperfShardsAcrossCluster(t *testing.T) {
	lns := []net.Listener{listen(t), listen(t)}
	addrs := []string{lns[0].Addr().String(), lns[1].Addr().String()}
	srvs := make([]*server.Server, 2)
	for i := range srvs {
		p, err := cluster.New(cluster.Config{Self: addrs[i], Members: addrs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		srvs[i] = server.New(testCache(t), server.Options{Cluster: p})
		serve(t, lns[i], srvs[i])
	}
	cfg := testConfig("pamakv", "")
	cfg.addrs = addrs
	cfg.ops, cfg.clients, cfg.pipeline, cfg.keyspaces = []string{"workload"}, 2, 1, []int{2048}
	runRows(t, cfg)
	for i, srv := range srvs {
		st := srv.Stats()
		if st.Conns == 0 {
			t.Errorf("node %d received no connections (sharding collapsed)", i)
		}
		if st.PeerForwards != 0 {
			t.Errorf("node %d forwarded %d requests; client-side sharding should route to owners", i, st.PeerForwards)
		}
	}
}

// TestIperfStormWithoutOverload: a storm (pipelined workload phase) against a
// server without overload control is answered in full — no sheds, no errors;
// the burst framing is the part that can go wrong.
func TestIperfStormWithoutOverload(t *testing.T) {
	addr, _ := startTestServer(t)
	cfg := testConfig("pamakv", addr)
	cfg.ops, cfg.clients, cfg.requests, cfg.keyspaces = []string{"workload"}, 2, 2000, []int{1024}
	r := runRows(t, cfg)[0]
	if field(t, r, "sheds") != 0 || field(t, r, "errors") != 0 || field(t, r, "pipeline") != 8 {
		t.Fatalf("storm row %v", r)
	}
}

func TestIperfTenantSchedule(t *testing.T) {
	if names, s, err := tenantSchedule(""); err != nil || names != nil || s != nil {
		t.Fatalf("empty spec: %v %v %v", names, s, err)
	}
	names, s, err := tenantSchedule("gold:3,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, i := range s {
		counts[names[i]]++
	}
	if len(names) != 2 || counts["gold"] != 3 || counts["bronze"] != 1 {
		t.Fatalf("schedule %v over %v", s, names)
	}
	if names, s, err := tenantSchedule("solo"); err != nil || len(names) != 1 || names[0] != "solo" || len(s) != 1 {
		t.Fatalf("bare name: %v %v %v", names, s, err)
	}
	for _, bad := range []string{"a:0", "a:-1", "a:x", "a:1001", "a/b", ":3", ",", "a,a:2"} {
		if _, _, err := tenantSchedule(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestIperfTenantTagging drives a tenant-routed server with a weighted
// schedule and checks the per-tenant rows and the server-side item split.
func TestIperfTenantTagging(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.Config{{Name: "gold", Weight: 3}, {Name: "bronze"}})
	if err != nil {
		t.Fatal(err)
	}
	// 48 MiB over gold:3, bronze:1, default:1, two shards per tenant.
	router, members, err := tenant.NewGroup(reg, cache.Config{
		CacheBytes:  48 << 20,
		StoreValues: true,
		WindowLen:   50_000,
	}, 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, listen(t), server.New(router, server.Options{Tenants: reg}))

	cfg := testConfig("pamakv", addr)
	cfg.ops, cfg.clients, cfg.pipeline, cfg.keyspaces = []string{"workload"}, 2, 1, []int{1024}
	if cfg.tenants, cfg.sched, err = tenantSchedule("gold:3,bronze:1"); err != nil {
		t.Fatal(err)
	}
	rows := runRows(t, cfg)
	if len(rows) != 3 || rows[1][0] != "pamakv/gold" || rows[2][0] != "pamakv/bronze" {
		t.Fatalf("want the total row then one per tenant, got %v", rows)
	}
	for _, r := range rows[1:] {
		if field(t, r, "ops_per_sec") == 0 || field(t, r, "hit_ratio") == 0 {
			t.Fatalf("tenant row without traffic: %v", r)
		}
	}
	var gold, bronze int
	arb, err := tenant.NewArbiter(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range arb.Snapshots() {
		switch sn.Name {
		case "gold":
			gold = sn.Items
		case "bronze":
			bronze = sn.Items
		}
	}
	if gold == 0 || bronze == 0 {
		t.Fatalf("tenant partitions empty: gold=%d bronze=%d", gold, bronze)
	}
	if gold <= bronze {
		t.Fatalf("3:1 weighting left gold (%d items) no larger than bronze (%d)", gold, bronze)
	}
	if err := tenant.CheckIsolation(members); err != nil {
		t.Fatal(err)
	}
}
