package main

import (
	"bufio"
	"net"
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
		{"snapshot multi shard", func(o *options) { o.snapshot = "/tmp/x"; o.shards = 2 }, "-snapshot"},
		{"tenants with shards", func(o *options) { o.tenants = "web:8:1"; o.shards = 2 }, ""},
		{"tenants with snapshot", func(o *options) { o.tenants = "web:8:1"; o.snapshot = "/tmp/x" }, "-snapshot"},
		{"tenants with peers", func(o *options) { o.tenants = "web:8:1"; o.peers = "a:1,b:2" }, "-tenants"},
		{"tenants with join", func(o *options) { o.tenants = "web:8:1"; o.join = "a:1" }, "-tenants"},
		{"tenants with membership only", func(o *options) { o.tenants = "web:8:1"; o.membershipOn = true }, "-tenants"},
		{"join with peers", func(o *options) { o.join = "a:1"; o.peers = "a:1,b:2" }, "-join"},
		{"membership without cluster", func(o *options) { o.membershipOn = true }, "-membership"},
		{"secret with membership", func(o *options) { o.peers = "a:1,b:2"; o.membershipOn = true; o.memSecret = "tok" }, ""},
		{"secret with join", func(o *options) { o.join = "a:1"; o.memSecret = "tok" }, ""},
		{"secret without membership", func(o *options) { o.memSecret = "tok" }, "-membership-secret"},
		{"secret on static peers", func(o *options) { o.peers = "a:1,b:2"; o.memSecret = "tok" }, "-membership-secret"},
		{"secret with whitespace", func(o *options) { o.join = "a:1"; o.memSecret = "bad tok" }, "-membership-secret"},
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

// TestNormalizeShardsDefault covers the soft -shards default: NumCPU-many
// shards unless the operator asked otherwise, yielding to -snapshot (one
// engine) when the count came from the default, and standing firm (so
// validate can refuse) when it was explicit. Tenants take shards as they are.
func TestNormalizeShardsDefault(t *testing.T) {
	cases := []struct {
		name       string
		mutate     func(o *options)
		wantShards int
		wantErr    bool // from validate(normalize(o))
	}{
		{"default alone keeps core count", func(o *options) { o.shards = 8 }, 8, false},
		{"default yields to snapshot", func(o *options) { o.shards = 8; o.snapshot = "/tmp/x" }, 1, false},
		{"default survives tenants", func(o *options) { o.shards = 8; o.tenants = "web:8:1" }, 8, false},
		{"explicit survives", func(o *options) { o.shards = 8; o.shardsSet = true }, 8, false},
		{"explicit conflicts with snapshot", func(o *options) { o.shards = 8; o.shardsSet = true; o.snapshot = "/tmp/x" }, 8, true},
		{"explicit accepted with tenants", func(o *options) { o.shards = 8; o.shardsSet = true; o.tenants = "web:8:1" }, 8, false},
		{"explicit single shard with snapshot", func(o *options) { o.shards = 1; o.shardsSet = true; o.snapshot = "/tmp/x" }, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOpts("127.0.0.1:0", "pama", 1)
			tc.mutate(&o)
			o = normalize(o)
			if o.shards != tc.wantShards {
				t.Fatalf("normalize left shards = %d, want %d", o.shards, tc.wantShards)
			}
			if err := validate(o); (err != nil) != tc.wantErr {
				t.Fatalf("validate after normalize: err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsTenantsWithCluster drives the satellite end to end: the
// full run() path must refuse the combination before binding anything.
func TestRunRejectsTenantsWithCluster(t *testing.T) {
	o := testOpts("127.0.0.1:0", "pama", 1)
	o.tenants = "web:8:1"
	o.peers = "127.0.0.1:11311,127.0.0.1:11312"
	err := run(o)
	if err == nil {
		t.Fatal("-tenants with -peers accepted")
	}
	if !strings.Contains(err.Error(), "-tenants") || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("error %q does not explain the refusal", err)
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
// ListenAndServe, so it runs in a goroutine) on an ephemeral port, then
// talks protocol to it: a hash-sharded store, and tenants that are each a
// range of shards. Shutdown is exercised via the listener teardown at process
// exit; the goroutines are intentionally left serving.
func TestRunServesTraffic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(o *options)
		keys   []string
	}{
		{"two shards", func(o *options) {}, []string{"k"}},
		{"tenants over two shards each", func(o *options) {
			o.tenants, o.cacheMiB = "gold:4:3:0,bronze:2:1:2", 32
		}, []string{"gold/k", "bronze/k", "k", "nobody/k"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close() // free the port for run; a tiny race window is acceptable in tests
			o := testOpts(addr, "pama", 2)
			tc.mutate(&o)
			errc := make(chan error, 1)
			go func() { errc <- run(o) }()

			var conn net.Conn
			deadline := time.Now().Add(5 * time.Second)
			for {
				conn, err = net.Dial("tcp", addr)
				if err == nil {
					break
				}
				select {
				case e := <-errc:
					t.Fatalf("server exited early: %v", e)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatalf("server never came up: %v", err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for _, k := range tc.keys {
				conn.Write([]byte("set " + k + " 0 0 5\r\nhello\r\nget " + k + "\r\n"))
				line, _ := r.ReadString('\n')
				if !strings.HasPrefix(line, "STORED") {
					t.Fatalf("set %s -> %q", k, line)
				}
				line, _ = r.ReadString('\n')
				if !strings.HasPrefix(line, "VALUE "+k+" 0 5") {
					t.Fatalf("get %s -> %q", k, line)
				}
				r.ReadString('\n') // hello
				r.ReadString('\n') // END
			}
		})
	}
}
