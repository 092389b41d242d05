package pamakv

import (
	"bufio"
	"fmt"
	"net"
	"testing"

	"pamakv/internal/cache"
	"pamakv/internal/kv"
	"pamakv/internal/proto"
	"pamakv/internal/server"
	"pamakv/internal/shard"
	"pamakv/internal/sim"
)

// setChurnSizes is set_churn's value-size table: pct percent of keys have a
// value of size bytes (mean ≈ 700 B).
var setChurnSizes = [...]struct{ pct, size int }{{40, 48}, {25, 100}, {15, 300}, {10, 1000}, {7, 3000}, {3, 10000}}

// setChurnSize is a key's value size, a pure function of its id.
func setChurnSize(id uint64) int {
	u := int(kv.Mix64(id^0x73697a65) % 100)
	for _, b := range setChurnSizes {
		if u < b.pct {
			return b.size
		}
		u -= b.pct
	}
	return setChurnSizes[len(setChurnSizes)-1].size
}

// replaySetChurn runs the benchmark's set_churn shape through a served
// two-shard PAMA group over loopback: two connections, each owning half of a
// key space four times the cache, preload every key once and then send ops
// requests of 75 % SET / 25 % GET. One goroutine sends a 16-deep batch on one
// connection, reads its 16 replies, then does the same on the other, so the
// engines see one fixed interleaving. It returns the group's counters.
func replaySetChurn(t *testing.T, seed uint64, ops int) cache.Stats {
	t.Helper()
	const (
		cacheBytes = 4 << 20
		conns      = 2
		depth      = 16
		// Four times the cache: cacheBytes / 700 B a value, times four.
		keysPerConn = 4 * cacheBytes / 700 / conns
	)
	// pama-server's engines at a sixteenth of the benchmark's 64 MiB: 64 KiB
	// slabs keep 32 a shard, and the window shrinks with them.
	cfg := cache.Config{
		Geometry:   kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 11},
		CacheBytes: cacheBytes, StoreValues: true, WindowLen: 100_000 / 16,
	}
	g, err := shard.New(cfg, 2, func() cache.Policy {
		p, _ := sim.PolicySpec{Kind: "pama"}.Build()
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(g, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()

	type stream struct {
		c    net.Conn
		rr   *proto.RespReader
		r    uint64 // splitmix64 state
		base uint64
		sent int
	}
	var ss [conns]*stream
	for i := range ss {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ss[i] = &stream{c: c, rr: proto.NewRespReader(bufio.NewReader(c)), r: kv.Mix64(seed) ^ uint64(i), base: uint64(i) * keysPerConn}
	}
	val := make([]byte, 10000)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	var req []byte
	// batch renders the connection's next depth requests (the preload's
	// SETs first), sends them and checks every reply.
	batch := func(s *stream) {
		req = req[:0]
		for i := 0; i < depth; i++ {
			var id uint64
			set := true
			if s.sent < keysPerConn {
				id = s.base + uint64(s.sent)
			} else {
				s.r += 0x9e3779b97f4a7c15
				x := kv.Mix64(s.r)
				set = x%4 != 0
				id = s.base + (x>>8)%keysPerConn
			}
			s.sent++
			key := fmt.Sprintf("key:%08x", id)
			if set {
				n := setChurnSize(id)
				req = append(req, fmt.Sprintf("set %s 0 0 %d\r\n", key, n)...)
				req = append(append(req, val[:n]...), "\r\n"...)
			} else {
				req = append(req, "get "+key+"\r\n"...)
			}
		}
		if _, err := s.c.Write(req); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			r, err := s.rr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != proto.StatusStored && r.Status != proto.StatusEnd {
				t.Fatalf("unexpected reply %v %q", r.Status, r.Msg)
			}
		}
	}
	for total := 0; total < conns*keysPerConn+ops; total += conns * depth {
		for _, s := range ss {
			batch(s)
		}
	}
	return g.Stats()
}

// TestSetChurnReplayRepeats replays set_churn's shape in a fixed interleaving
// three times on one seed: the engines' Gets, Hits, Evictions and
// SlabMigrations must repeat exactly. They do, so a spread of the benchmark's
// set_churn hit_ratio between runs of one seed comes from when its two
// concurrent connections' batches reach the engines, not from the engines.
func TestSetChurnReplayRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("three served replays")
	}
	const seed, ops = 1, 100_000
	type counts struct{ gets, hits, evictions, migrations uint64 }
	var first counts
	for run := 0; run < 3; run++ {
		st := replaySetChurn(t, seed, ops)
		got := counts{st.Gets, st.Hits, st.Evictions, st.SlabMigrations}
		if run == 0 {
			if got.evictions == 0 || got.migrations == 0 || got.hits == 0 {
				t.Fatalf("replay %+v: no evictions, slab migrations or hits to compare", got)
			}
			first = got
			continue
		}
		if got != first {
			t.Fatalf("run %d of seed %d: %+v, run 0: %+v", run, seed, got, first)
		}
	}
	t.Logf("seed %d: %+v", seed, first)
}
