package main

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/proto"
	"pamakv/internal/server"
	"pamakv/internal/tenant"
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

func TestLoadgenAgainstLiveServer(t *testing.T) {
	addr := startTestServer(t)
	var sb strings.Builder
	if err := run(&sb, addr, "etc", 4000, 2, 2048, 128, 0, false, 0, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"ops/s", "hit-ratio=", "client latency", "protocol-errors=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// With a keyspace this hot the second half of the run must hit.
	if strings.Contains(out, "hit-ratio=0.0") {
		t.Fatalf("implausibly cold run:\n%s", out)
	}
}

func TestLoadgenWorkloadSizes(t *testing.T) {
	addr := startTestServer(t)
	var sb strings.Builder
	// value-bytes 0: use (capped) workload sizes.
	if err := run(&sb, addr, "sys", 1000, 1, 512, 0, 0, false, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLoadgenShardsAcrossCluster: a comma-separated -addr list shards keys
// client-side with the same ring the servers use, so every request lands on
// its owner and the cluster never forwards.
func TestLoadgenShardsAcrossCluster(t *testing.T) {
	const vnodes = 64
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*server.Server, 2)
	for i := range srvs {
		p, err := cluster.New(cluster.Config{Self: addrs[i], Members: addrs, VNodes: vnodes})
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cache.Config{
			CacheBytes:  32 << 20,
			StoreValues: true,
			WindowLen:   50_000,
		}, core.New(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = server.New(c, server.Options{Cluster: p})
		go srvs[i].Serve(lns[i])
		t.Cleanup(func() { srvs[i].Shutdown(); p.Close() })
	}

	var sb strings.Builder
	if err := run(&sb, addrs[0]+","+addrs[1], "etc", 4000, 2, 2048, 128, vnodes, false, 0, nil); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "protocol-errors=0") {
		t.Fatalf("sharded run had protocol errors:\n%s", out)
	}
	for i, srv := range srvs {
		st := srv.Stats()
		if st.Conns == 0 {
			t.Errorf("node %d received no connections (sharding collapsed)", i)
		}
		// The loadgen's ring agrees with the servers': nothing to relay.
		if st.PeerForwards != 0 {
			t.Errorf("node %d forwarded %d requests; client-side sharding should route to owners", i, st.PeerForwards)
		}
	}
}

// TestLoadgenStormMode: pipelined GET bursts against a server without
// overload control parse cleanly end to end (sheds reported, zero, and no
// protocol errors — the burst framing is the part that can go wrong).
func TestLoadgenStormMode(t *testing.T) {
	addr := startTestServer(t)
	var sb strings.Builder
	if err := run(&sb, addr, "etc", 2000, 2, 1024, 64, 0, true, 8, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sheds=0") {
		t.Fatalf("storm report missing shed count:\n%s", out)
	}
	if !strings.Contains(out, "protocol-errors=0") {
		t.Fatalf("storm run had protocol errors:\n%s", out)
	}
}

// sheddingServer is a scripted overloaded server: every nth GET is answered
// with the protocol's shed line, the rest miss cleanly. Storm bursts against
// it interleave sheds mid-pipeline, which is exactly the framing hazard the
// shared response reader must absorb.
func sheddingServer(t *testing.T, n int) string {
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
					switch cmd.Name {
					case "get":
						gets++
						if gets%n == 0 {
							out = proto.AppendShed(out)
						} else {
							out = proto.AppendEnd(out)
						}
					case "set":
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

// TestLoadgenStormShedMidPipeline: SERVER_ERROR busy replies landing in the
// middle of a pipelined storm burst must be counted as sheds — not protocol
// errors — and must not desynchronize the remaining responses of the burst.
func TestLoadgenStormShedMidPipeline(t *testing.T) {
	addr := sheddingServer(t, 3)
	var sb strings.Builder
	if err := run(&sb, addr, "etc", 3000, 2, 1024, 64, 0, true, 8, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "protocol-errors=0") {
		t.Fatalf("sheds were miscounted as protocol errors:\n%s", out)
	}
	if strings.Contains(out, "sheds=0 ") || !strings.Contains(out, "sheds=") {
		t.Fatalf("shedding server produced no recorded sheds:\n%s", out)
	}
	// Every third GET shed: the ratio must be in that neighborhood, which
	// only holds if burst framing survived each mid-pipeline shed.
	if !strings.Contains(out, "shed-ratio=0.33") {
		t.Fatalf("shed ratio drifted from the scripted 1/3:\n%s", out)
	}
}

func TestLoadgenErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "127.0.0.1:1", "etc", 100, 1, 128, 64, 0, false, 0, nil); err == nil {
		t.Fatal("unreachable server accepted")
	}
	if err := run(&sb, "127.0.0.1:1", "bogus", 100, 1, 128, 64, 0, false, 0, nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTenantSchedule(t *testing.T) {
	if s, err := tenantSchedule(""); err != nil || s != nil {
		t.Fatalf("empty spec: %v %v", s, err)
	}
	s, err := tenantSchedule("gold:3,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, n := range s {
		counts[n]++
	}
	if counts["gold"] != 3 || counts["bronze"] != 1 {
		t.Fatalf("schedule composition %v", counts)
	}
	if s, err := tenantSchedule("solo"); err != nil || len(s) != 1 || s[0] != "solo" {
		t.Fatalf("bare name: %v %v", s, err)
	}
	for _, bad := range []string{"a:0", "a:-1", "a:x", "a:1001", "a/b", ":3", ","} {
		if _, err := tenantSchedule(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestLoadgenTenantTagging drives a tenant-routed server with a weighted
// schedule and checks the per-tenant report and the server-side item split.
func TestLoadgenTenantTagging(t *testing.T) {
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
	srv := server.New(router, server.Options{Tenants: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)

	sched, err := tenantSchedule("gold:3,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, ln.Addr().String(), "etc", 4000, 2, 1024, 64, 0, false, 0, sched); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "tenant gold:") || !strings.Contains(out, "tenant bronze:") {
		t.Fatalf("report missing per-tenant lines:\n%s", out)
	}
	if !strings.Contains(out, "protocol-errors=0") {
		t.Fatalf("tenant run had protocol errors:\n%s", out)
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
