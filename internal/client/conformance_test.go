package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pamakv/internal/client"
	"pamakv/internal/proto"
	"pamakv/internal/server"
)

// step is one entry of the conformance matrix: an operation, its operands,
// and the outcome the Memcached text protocol promises. The same table runs
// through the single-op client surface and the pipelined one, and (under
// the memcached build tag) against a real memcached.
type step struct {
	name    string
	verb    string
	key     string
	value   string
	flags   uint32
	delta   uint64
	exptime int64

	// useCAS makes a cas step spend the token saved by the last gets;
	// stale bumps it so the swap must lose.
	useCAS bool
	stale  bool
	// saveCAS makes a gets step record its token for later cas steps.
	saveCAS bool

	want error // expected sentinel; nil means success
	// wantReject expects a server-side CLIENT_ERROR (no sentinel maps it).
	wantReject bool
	wantValue  string
	wantFlags  uint32
	wantNum    uint64
}

// matrix is the full command conformance table: every verb the client
// exposes, hit, miss, and error paths. Steps run in order; later steps
// depend on earlier ones.
var matrix = []step{
	{name: "get miss", verb: "get", key: "k1", want: client.ErrCacheMiss},
	{name: "set", verb: "set", key: "k1", value: "hello", flags: 7},
	{name: "get hit", verb: "get", key: "k1", wantValue: "hello", wantFlags: 7},
	{name: "add on existing", verb: "add", key: "k1", value: "x", want: client.ErrNotStored},
	{name: "add on fresh", verb: "add", key: "k2", value: "fresh", flags: 1},
	{name: "get added", verb: "get", key: "k2", wantValue: "fresh", wantFlags: 1},
	{name: "replace existing", verb: "replace", key: "k2", value: "swapped", flags: 3},
	{name: "get replaced", verb: "get", key: "k2", wantValue: "swapped", wantFlags: 3},
	{name: "replace missing", verb: "replace", key: "k3", value: "x", want: client.ErrNotStored},
	{name: "append", verb: "append", key: "k1", value: "!!"},
	{name: "get appended", verb: "get", key: "k1", wantValue: "hello!!", wantFlags: 7},
	{name: "append missing", verb: "append", key: "k3", value: "x", want: client.ErrNotStored},
	{name: "prepend", verb: "prepend", key: "k1", value: ">>"},
	{name: "get prepended", verb: "get", key: "k1", wantValue: ">>hello!!", wantFlags: 7},
	{name: "prepend missing", verb: "prepend", key: "k3", value: "x", want: client.ErrNotStored},
	{name: "gets token", verb: "gets", key: "k1", wantValue: ">>hello!!", wantFlags: 7, saveCAS: true},
	{name: "cas wins", verb: "cas", key: "k1", value: "casval", useCAS: true},
	{name: "cas stale", verb: "cas", key: "k1", value: "loser", useCAS: true, stale: true, want: client.ErrCASConflict},
	{name: "get cas result", verb: "get", key: "k1", wantValue: "casval"},
	{name: "cas missing", verb: "cas", key: "k3", value: "x", useCAS: true, want: client.ErrCacheMiss},
	{name: "seed counter", verb: "set", key: "num", value: "10"},
	{name: "incr", verb: "incr", key: "num", delta: 5, wantNum: 15},
	{name: "decr", verb: "decr", key: "num", delta: 3, wantNum: 12},
	{name: "decr clamps at zero", verb: "decr", key: "num", delta: 100, wantNum: 0},
	{name: "incr missing", verb: "incr", key: "k3", delta: 1, want: client.ErrCacheMiss},
	{name: "seed text", verb: "set", key: "text", value: "abc"},
	{name: "incr non-numeric", verb: "incr", key: "text", delta: 1, wantReject: true},
	{name: "touch", verb: "touch", key: "k1", exptime: 1000},
	{name: "touch missing", verb: "touch", key: "k3", exptime: 1000, want: client.ErrCacheMiss},
	{name: "delete", verb: "delete", key: "k1"},
	{name: "delete again", verb: "delete", key: "k1", want: client.ErrCacheMiss},
	{name: "get deleted", verb: "get", key: "k1", want: client.ErrCacheMiss},
}

// checkOutcome asserts one step's observed outcome against the table.
func checkOutcome(t *testing.T, st step, value []byte, flags uint32, num uint64, err error) {
	t.Helper()
	switch {
	case st.wantReject:
		if err == nil || errors.Is(err, client.ErrCacheMiss) || errors.Is(err, client.ErrNotStored) ||
			errors.Is(err, client.ErrCASConflict) {
			t.Fatalf("%s: want server rejection, got %v", st.name, err)
		}
		if !strings.Contains(err.Error(), "server rejected") {
			t.Fatalf("%s: want CLIENT_ERROR mapping, got %v", st.name, err)
		}
		return
	case st.want != nil:
		if !errors.Is(err, st.want) {
			t.Fatalf("%s: want %v, got %v", st.name, st.want, err)
		}
		return
	case err != nil:
		t.Fatalf("%s: %v", st.name, err)
	}
	switch st.verb {
	case "get", "gets":
		if string(value) != st.wantValue {
			t.Fatalf("%s: value %q, want %q", st.name, value, st.wantValue)
		}
		if flags != st.wantFlags {
			t.Fatalf("%s: flags %d, want %d", st.name, flags, st.wantFlags)
		}
	case "incr", "decr":
		if num != st.wantNum {
			t.Fatalf("%s: number %d, want %d", st.name, num, st.wantNum)
		}
	}
}

// runMatrixDirect drives the matrix through the single-op client surface.
// pfx namespaces the keys so reruns against a shared live server stay
// independent.
func runMatrixDirect(t *testing.T, c *client.Client, pfx string) {
	var savedCAS uint64
	for _, st := range matrix {
		key := pfx + st.key
		var (
			value []byte
			flags uint32
			num   uint64
			err   error
		)
		switch st.verb {
		case "get", "gets":
			var it client.Item
			if st.verb == "get" {
				it, err = c.Get(key)
			} else {
				it, err = c.Gets(key)
				if err == nil && st.saveCAS {
					if it.CAS == 0 {
						t.Fatalf("%s: gets returned zero CAS token", st.name)
					}
					savedCAS = it.CAS
				}
			}
			value, flags = it.Value, it.Flags
		case "set":
			err = c.Set(key, st.flags, st.exptime, []byte(st.value))
		case "add":
			err = c.Add(key, st.flags, st.exptime, []byte(st.value))
		case "replace":
			err = c.Replace(key, st.flags, st.exptime, []byte(st.value))
		case "append":
			err = c.Append(key, []byte(st.value))
		case "prepend":
			err = c.Prepend(key, []byte(st.value))
		case "cas":
			cas := savedCAS
			if st.stale {
				cas += 99
			}
			err = c.CompareAndSwap(key, st.flags, st.exptime, []byte(st.value), cas)
		case "delete":
			err = c.Delete(key)
		case "incr":
			num, err = c.Incr(key, st.delta)
		case "decr":
			num, err = c.Decr(key, st.delta)
		case "touch":
			err = c.Touch(key, st.exptime)
		default:
			t.Fatalf("%s: unknown verb %q", st.name, st.verb)
		}
		checkOutcome(t, st, value, flags, num, err)
	}
}

// runMatrixPipelined drives the same matrix through Pipeline, batching
// consecutive steps and flushing only when a step needs the CAS token a
// pending gets has not yet produced — so most of the table really does ride
// multi-op batches.
func runMatrixPipelined(t *testing.T, c *client.Client, pfx string) {
	p := c.Pipeline()
	var pending []step
	var savedCAS uint64

	flush := func() {
		if len(pending) == 0 {
			return
		}
		results, err := p.Exec()
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
		if len(results) != len(pending) {
			t.Fatalf("Exec returned %d results for %d ops", len(results), len(pending))
		}
		for i, st := range pending {
			r := results[i]
			checkOutcome(t, st, r.Value, r.Flags, r.Number, r.Err)
			if st.saveCAS && r.Err == nil {
				if r.CAS == 0 {
					t.Fatalf("%s: gets returned zero CAS token", st.name)
				}
				savedCAS = r.CAS
			}
		}
		pending = pending[:0]
	}

	for _, st := range matrix {
		if st.useCAS {
			flush()
		}
		key := pfx + st.key
		switch st.verb {
		case "get":
			p.Get(key)
		case "gets":
			p.Gets(key)
		case "set":
			p.Set(key, st.flags, st.exptime, []byte(st.value))
		case "add":
			p.Add(key, st.flags, st.exptime, []byte(st.value))
		case "replace":
			p.Replace(key, st.flags, st.exptime, []byte(st.value))
		case "append":
			p.Append(key, []byte(st.value))
		case "prepend":
			p.Prepend(key, []byte(st.value))
		case "cas":
			cas := savedCAS
			if st.stale {
				cas += 99
			}
			p.CAS(key, st.flags, st.exptime, []byte(st.value), cas)
		case "delete":
			p.Delete(key)
		case "incr":
			p.Incr(key, st.delta)
		case "decr":
			p.Decr(key, st.delta)
		case "touch":
			p.Touch(key, st.exptime)
		default:
			t.Fatalf("%s: unknown verb %q", st.name, st.verb)
		}
		pending = append(pending, st)
		// A gets a later cas depends on must be flushed before the token
		// is spent; flushing right after queuing keeps batches maximal
		// without tracking the dependency backwards.
		if st.saveCAS {
			flush()
		}
	}
	flush()
}

func newClient(t testing.TB, cfg client.Config) *client.Client {
	t.Helper()
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConformanceDirect(t *testing.T) {
	addr := startServer(t, server.Options{})
	c := newClient(t, client.Config{Addrs: []string{addr}})
	runMatrixDirect(t, c, "d.")
}

func TestConformancePipelined(t *testing.T) {
	addr := startServer(t, server.Options{})
	c := newClient(t, client.Config{Addrs: []string{addr}})
	runMatrixPipelined(t, c, "p.")
}

// TestConformanceAdmin covers the non-keyed commands and the client-side
// request validation the matrix cannot express.
func TestConformanceAdmin(t *testing.T) {
	addr := startServer(t, server.Options{})
	c := newClient(t, client.Config{Addrs: []string{addr}})

	if err := c.Set("gone", 0, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatalf("flush_all: %v", err)
	}
	if _, err := c.Get("gone"); !errors.Is(err, client.ErrCacheMiss) {
		t.Fatalf("get after flush_all: %v", err)
	}

	v, err := c.Version()
	if err != nil || v == "" {
		t.Fatalf("version: %q, %v", v, err)
	}

	stats, err := c.ServerStats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if m := stats[addr]; m["cmd_set"] == "" {
		t.Fatalf("stats missing cmd_set: %v", m)
	}

	// Keys that would desynchronize the stream are refused before the wire.
	for _, bad := range []string{"", "has space", "has\nnewline", strings.Repeat("k", proto.MaxKeyLen+1)} {
		if err := c.Set(bad, 0, 0, []byte("x")); err == nil {
			t.Fatalf("set %q: want key error", bad)
		}
		if _, err := c.Get(bad); err == nil {
			t.Fatalf("get %q: want key error", bad)
		}
	}
	if err := c.Set("big", 0, 0, bytes.Repeat([]byte("v"), proto.MaxDataLen+1)); !errors.Is(err, client.ErrValueTooLarge) {
		t.Fatalf("oversized set: %v", err)
	}

	// The same invalid key inside a pipeline fails its own slot only.
	p := c.Pipeline()
	p.Set("ok1", 0, 0, []byte("a"))
	p.Set("bad key", 0, 0, []byte("b"))
	p.Get("ok1")
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err == nil || results[2].Err != nil {
		t.Fatalf("mixed-validity batch: %+v", results)
	}
	if string(results[2].Value) != "a" {
		t.Fatalf("value after invalid slot: %q", results[2].Value)
	}
}

// TestShardedClientRouting checks that a multi-address client splits keys
// across members: every key is readable through the sharded client, and each
// lives on exactly one node.
func TestShardedClientRouting(t *testing.T) {
	addr1 := startServer(t, server.Options{})
	addr2 := startServer(t, server.Options{})
	sharded := newClient(t, client.Config{Addrs: []string{addr1, addr2}})
	direct1 := newClient(t, client.Config{Addrs: []string{addr1}})
	direct2 := newClient(t, client.Config{Addrs: []string{addr2}})

	const n = 200
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("route%03d", i)
		if err := sharded.Set(key, 0, 0, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	on1, on2 := 0, 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("route%03d", i)
		it, err := sharded.Get(key)
		if err != nil || string(it.Value) != key {
			t.Fatalf("sharded get %s: %v", key, err)
		}
		_, err1 := direct1.Get(key)
		_, err2 := direct2.Get(key)
		switch {
		case err1 == nil && errors.Is(err2, client.ErrCacheMiss):
			on1++
		case err2 == nil && errors.Is(err1, client.ErrCacheMiss):
			on2++
		default:
			t.Fatalf("key %s: on node1 err=%v, node2 err=%v (want exactly one owner)", key, err1, err2)
		}
	}
	if on1 == 0 || on2 == 0 {
		t.Fatalf("routing degenerate: %d/%d keys on node1/node2", on1, on2)
	}

	// A pipelined mixed batch spanning both owners comes back in queue
	// order with per-key routing intact.
	p := sharded.Pipeline()
	for i := 0; i < n; i++ {
		p.Get(fmt.Sprintf("route%03d", i))
	}
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want := fmt.Sprintf("route%03d", i)
		if r.Err != nil || string(r.Value) != want {
			t.Fatalf("pipelined sharded get %d: %q, %v", i, r.Value, r.Err)
		}
	}
}
