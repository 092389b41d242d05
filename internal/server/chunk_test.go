package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/membership"
	"pamakv/internal/proto"
	"pamakv/internal/shard"
)

// TestParseAheadStopsAt64KiB: a chunk stops parsing ahead once its data
// blocks hold maxRetainedScratch bytes; the next chunk picks up where it
// stopped, a malformed line becomes an entry of its own, and a quit ends the
// parse.
func TestParseAheadStopsAt64KiB(t *testing.T) {
	val := strings.Repeat("v", 10<<10)
	var stream strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&stream, "set k%d 0 0 %d\r\n%s\r\n", i, len(val), val)
	}
	stream.WriteString("bogus\r\nget a\r\nquit\r\nget never\r\n")
	r := bufio.NewReaderSize(strings.NewReader(stream.String()), 1<<20) // all of it buffered at the first read
	p := proto.NewParser(r)
	defer p.Close()
	sc := &connScratch{}

	p.BeginChunk()
	cmd, err := p.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	sc.chunk = append(sc.chunk, chunkEntry{cmd: cmd})
	n, quit, err := parseAhead(p, sc, DefaultMaxPipeline-1)
	// Six blocks hold 60 KiB, under the cap: the seventh is parsed, then the
	// chunk is full.
	if err != nil || quit || n != 6 || len(sc.chunk) != 7 || p.ChunkData() != 7*len(val) {
		t.Fatalf("first chunk: %d more commands, %d entries, %d data bytes, quit %v, err %v; want 6, 7, %d",
			n, len(sc.chunk), p.ChunkData(), quit, err, 7*len(val))
	}
	for i, e := range sc.chunk {
		if e.cmd == nil || e.cmd.Keys[0] != fmt.Sprintf("k%d", i) || len(e.cmd.Data) != len(val) {
			t.Fatalf("first chunk entry %d: %+v", i, e)
		}
	}
	sc.chunk = sc.chunk[:0]
	p.ReleaseChunk()

	p.BeginChunk()
	n, quit, err = parseAhead(p, sc, DefaultMaxPipeline-7)
	if err != nil || !quit || n != 5 || len(sc.chunk) != 6 {
		t.Fatalf("second chunk: %d commands, %d entries, quit %v, err %v; want 5, 6, quit", n, len(sc.chunk), quit, err)
	}
	if e := sc.chunk[3]; e.cmd != nil || !strings.Contains(e.msg, "unknown command") {
		t.Fatalf("malformed line parsed as %+v", e)
	}
	if last := sc.chunk[5].cmd; last.Name != "quit" || r.Buffered() == 0 {
		t.Fatalf("parse went past the quit: last %+v, %d bytes left", last, r.Buffered())
	}
	sc.chunk = sc.chunk[:0]
	p.ReleaseChunk()

	// The budget bounds a chunk as the batch cap does.
	r = bufio.NewReaderSize(strings.NewReader(strings.Repeat("get a\r\n", 10)), 1<<16)
	p = proto.NewParser(r)
	defer p.Close()
	p.BeginChunk()
	if _, err := p.ReadCommand(); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := parseAhead(p, sc, 3); n != 3 {
		t.Fatalf("budget 3 parsed %d commands", n)
	}
}

// TestPipelinedBurstsAnswerLikeOneAtATime sends seeded random bursts — a set
// and a get of the same key, malformed lines, noreply, multi-key gets across
// both shards, stores too large for any class (so a burst spans several
// chunks), and a quit part-way with commands after it — to two servers over
// identical two-shard groups: one parses each burst ahead and prefetches it,
// the other (MaxPipeline 1) serves every command as soon as it is parsed. The
// replies must be byte-identical, and so must the engines' counters.
func TestPipelinedBurstsAnswerLikeOneAtATime(t *testing.T) {
	start := func(maxPipeline int) (string, *shard.Group) {
		t.Helper()
		g, err := shard.New(defaultCfg(), 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
		if err != nil {
			t.Fatal(err)
		}
		srv := New(g, Options{MaxPipeline: maxPipeline})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(srv.Shutdown)
		return ln.Addr().String(), g
	}
	burstAddr, burstGroup := start(0)
	oneAddr, oneGroup := start(1)

	rng := rand.New(rand.NewSource(29))
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(24)) }
	value := func(n int) string { return strings.Repeat(string(rune('a'+rng.Intn(26))), n) }
	command := func() string {
		switch rng.Intn(16) {
		case 0, 1:
			k, v := key(), value(1+rng.Intn(300))
			return fmt.Sprintf("set %s 0 0 %d\r\n%s\r\nget %s\r\n", k, len(v), v, k) // same key, one burst
		case 2:
			v := value(1 + rng.Intn(300))
			return fmt.Sprintf("set %s %d 0 %d noreply\r\n%s\r\n", key(), rng.Intn(9), len(v), v)
		case 3:
			return "get " + key() + " " + key() + " " + key() + " " + key() + "\r\n"
		case 4:
			return "gets " + key() + "\r\n"
		case 5:
			return []string{"bogus\r\n", "get\r\n", "set k 0 0 zz\r\n", "set k 0 0 3\r\nabcd\r\n", "get a\tb\r\n"}[rng.Intn(5)]
		case 6:
			return "delete " + key() + []string{"", " noreply"}[rng.Intn(2)] + "\r\n"
		case 7:
			v := value(20<<10 + rng.Intn(20<<10)) // no class holds it: SERVER_ERROR, and a full chunk
			return fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key(), len(v), v)
		case 8:
			return fmt.Sprintf("incr %s %d\r\n", key(), rng.Intn(5))
		case 9:
			return fmt.Sprintf("append %s 0 0 2\r\nzz\r\n", key())
		case 10:
			return fmt.Sprintf("add %s 0 0 1\r\nx\r\n", key())
		case 11:
			return fmt.Sprintf("touch %s 0\r\n", key())
		case 12:
			return "version\r\n"
		default:
			return "get " + key() + "\r\n"
		}
	}
	for b := 0; b < 40; b++ {
		cmds := make([]string, 2+rng.Intn(60))
		size := 0
		for i := range cmds {
			cmds[i] = command()
			size += len(cmds[i])
		}
		// A server that closes with bytes unread resets the connection, which
		// can cost the client replies it has not read yet. So a quit goes
		// mid-burst only where the whole burst lands in the server's first
		// read; a longer one ends in its quit.
		quitAt := len(cmds)
		if size < 16<<10 {
			quitAt = rng.Intn(len(cmds))
		}
		burst := strings.Join(cmds[:quitAt], "") + "quit\r\n" + strings.Join(cmds[quitAt:], "")
		got, want := converse(t, burstAddr, burst), converse(t, oneAddr, burst)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("burst %d: replies diverge at byte %d:\n parsed ahead %.80q\n one by one   %.80q\nburst %.300q",
				b, i, got[i:], want[i:], burst)
		}
	}
	sb, so := burstGroup.Stats(), oneGroup.Stats()
	if sb.Prefetched == 0 || sb.PrefetchResident == 0 {
		t.Fatalf("the bursts prefetched nothing: %+v", sb)
	}
	sb.Prefetched, sb.PrefetchResident = so.Prefetched, so.PrefetchResident
	if sb != so {
		t.Fatalf("engine counters differ:\n parsed ahead %+v\n one by one   %+v", sb, so)
	}
}

// TestStraddlingBurstReadsBackExact: one pipelined burst many times the
// connection's 64 KiB read buffer, so that the buffer's end cuts SET data
// blocks in the middle of chunks. A chunk ends before each such block, which
// opens the next; every value must read back byte for byte, within the burst
// and after it.
func TestStraddlingBurstReadsBackExact(t *testing.T) {
	g, err := shard.New(defaultCfg(), 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
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

	rng := rand.New(rand.NewSource(50))
	var burst, reads strings.Builder
	var want, wantReads bytes.Buffer
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("straddle-%03d", i)
		v := make([]byte, 500+rng.Intn(3500))
		for j := range v {
			v[j] = byte('!' + rng.Intn(94))
		}
		value := fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", k, len(v), v)
		fmt.Fprintf(&burst, "set %s 0 0 %d\r\n%s\r\nget %s\r\n", k, len(v), v, k)
		want.WriteString("STORED\r\n" + value)
		reads.WriteString("get " + k + "\r\n")
		wantReads.WriteString(value)
	}
	if burst.Len() < 8<<16 {
		t.Fatalf("the burst is %d bytes, want several read buffers", burst.Len())
	}
	burst.WriteString("quit\r\n")
	reads.WriteString("quit\r\n")
	for i, c := range []struct {
		burst string
		want  []byte
	}{{burst.String(), want.Bytes()}, {reads.String(), wantReads.Bytes()}} {
		if got := converse(t, ln.Addr().String(), c.burst); !bytes.Equal(got, c.want) {
			j := 0
			for j < len(got) && j < len(c.want) && got[j] == c.want[j] {
				j++
			}
			t.Fatalf("burst %d: replies diverge at byte %d of %d:\n got  %.80q\n want %.80q", i, j, len(c.want), got[j:], c.want[j:])
		}
	}
}

// TestBatchFlushesOnceAcrossPartialBlock: a chunk that ends before a SET
// whose data block has not arrived — its line the last byte buffered — does
// not end the batch: the batch waits for the block and answers both
// commands in one flush.
func TestBatchFlushesOnceAcrossPartialBlock(t *testing.T) {
	srv, addr := startServer(t, Options{})
	cl := dial(t, addr)
	cl.send(t, "get absent\r\nset k 0 0 5\r\n")
	time.Sleep(50 * time.Millisecond)
	cl.send(t, "hello\r\n")
	if got := readUntil(t, cl, "STORED\r\n"); got != "END\r\n" {
		t.Fatalf("replies %q", got)
	}
	if st := srv.Stats(); st.Batches != 1 || st.BatchedCmds != 2 {
		t.Fatalf("%d batches of %d commands, want 1 of 2", st.Batches, st.BatchedCmds)
	}
}

// TestSplitBatchPrefetchesLoneChunks: a batch cut into two one-key chunks
// where the read buffer ends — a SET whose data block arrives late — still
// prefetches both keys, as the same burst arriving whole does, while a
// lone-key batch prefetches nothing.
func TestSplitBatchPrefetchesLoneChunks(t *testing.T) {
	g, err := shard.New(defaultCfg(), 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	rec := &prefetchRecorder{Store: g}
	srv := New(rec, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	cl := dial(t, ln.Addr().String())

	cl.send(t, "get alone\r\n")
	readUntil(t, cl, "END\r\n")
	cl.send(t, "get absent\r\nset k 0 0 5\r\n")
	time.Sleep(50 * time.Millisecond)
	cl.send(t, "hello\r\n")
	if got := readUntil(t, cl, "STORED\r\n"); got != "END\r\n" {
		t.Fatalf("replies %q", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if got := strings.Join(rec.keys, " "); got != "absent k" {
		t.Fatalf("prefetched %q, want %q", got, "absent k")
	}
}

// converse sends burst in one write on a new connection and returns every
// byte the server answers until it closes the connection (the burst's quit).
func converse(t *testing.T, addr, burst string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	errc := make(chan error, 1)
	go func() { _, err := io.WriteString(conn, burst); errc <- err }()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil && !strings.Contains(err.Error(), "reset") && !strings.Contains(err.Error(), "broken pipe") {
		t.Fatal(err) // the server may close before it has read what follows the quit
	}
	return got
}

// prefetchRecorder is a Store that keeps a copy of every key handed to
// Prefetch.
type prefetchRecorder struct {
	Store
	mu   sync.Mutex
	keys []string
}

func (r *prefetchRecorder) Prefetch(keys []string) {
	r.mu.Lock()
	for _, k := range keys {
		r.keys = append(r.keys, string(append([]byte(nil), k...))) // k aliases parser scratch
	}
	r.mu.Unlock()
	r.Store.Prefetch(keys)
}

// TestPrefetchTouchesOnlyOwnedKeys: in a two-node cluster, node A routes each
// chunk once and hands Store.Prefetch only the keys it owns. Seeded bursts
// mixing owned and remote keys, multi-key gets across both owners, gets,
// writes (a remote set and a get of it in one burst included) and a
// membership control key go to a parse-ahead node A and, in a second
// cluster, to a MaxPipeline: 1 node A. Every key A's store is asked to
// prefetch must be one A owns; the replies must be byte-identical, and so
// must A's engine counters. The clusters' rings differ only in node B's
// address, so the bursts use the keys whose owner is the same in both.
func TestPrefetchTouchesOnlyOwnedKeys(t *testing.T) {
	const self = "node-a"
	type side struct {
		srv   *Server
		addr  string
		ring  *cluster.Ring
		store *prefetchRecorder
		group *shard.Group
	}
	var sides [2]side
	for i, maxPipeline := range []int{0, 1} {
		// Node B serves what A forwards; it needs no cluster of its own.
		bln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		b := New(newClusterEngine(t), Options{})
		go b.Serve(bln)
		t.Cleanup(b.Shutdown)
		members := []string{self, bln.Addr().String()}
		peers, err := cluster.New(cluster.Config{Self: self, Members: members})
		if err != nil {
			t.Fatal(err)
		}
		g, err := shard.New(defaultCfg(), 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
		if err != nil {
			t.Fatal(err)
		}
		rec := &prefetchRecorder{Store: g}
		a := New(rec, Options{MaxPipeline: maxPipeline, Cluster: peers, HotCacheTTL: time.Hour})
		aln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go a.Serve(aln)
		t.Cleanup(func() { a.Shutdown(); peers.Close() })
		sides[i] = side{srv: a, addr: aln.Addr().String(), ring: cluster.NewRing(members, 0), store: rec, group: g}
	}

	var owned, remote []string
	for i := 0; len(owned) < 12 || len(remote) < 12; i++ {
		k := fmt.Sprintf("k%d", i)
		o0, o1 := sides[0].ring.Owner(k) == self, sides[1].ring.Owner(k) == self
		switch {
		case o0 != o1:
		case o0 && len(owned) < 12:
			owned = append(owned, k)
		case !o0 && len(remote) < 12:
			remote = append(remote, k)
		}
	}
	rng := rand.New(rand.NewSource(41))
	key := func() string {
		if rng.Intn(2) == 0 {
			return owned[rng.Intn(len(owned))]
		}
		return remote[rng.Intn(len(remote))]
	}
	command := func() string {
		switch rng.Intn(12) {
		case 0, 1:
			k, v := key(), strings.Repeat(string(rune('a'+rng.Intn(26))), 1+rng.Intn(200))
			return fmt.Sprintf("set %s 0 0 %d\r\n%s\r\nget %s\r\n", k, len(v), v, k)
		case 2:
			return "get " + key() + " " + key() + " " + key() + " " + key() + "\r\n"
		case 3, 4:
			return "gets " + key() + " " + key() + "\r\n"
		case 5:
			return "delete " + key() + "\r\n"
		case 6:
			return fmt.Sprintf("incr %s 1\r\n", key())
		case 7:
			return "get " + membership.KeyView + "\r\n"
		default:
			return "get " + key() + "\r\n"
		}
	}
	for b := 0; b < 30; b++ {
		cmds := make([]string, 2+rng.Intn(40))
		for i := range cmds {
			cmds[i] = command()
		}
		burst := strings.Join(cmds, "") + "quit\r\n"
		got, want := converse(t, sides[0].addr, burst), converse(t, sides[1].addr, burst)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("burst %d: replies diverge at byte %d:\n parsed ahead %.80q\n one by one   %.80q\nburst %.300q",
				b, i, got[i:], want[i:], burst)
		}
	}
	if st := sides[0].srv.Stats(); st.PeerForwards == 0 || st.HotHits == 0 {
		t.Fatalf("the bursts did not exercise the peer tier: %d forwards, %d hot-cache hits", st.PeerForwards, st.HotHits)
	}
	rec := sides[0].store
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.keys) == 0 {
		t.Fatal("the bursts prefetched nothing")
	}
	for _, k := range rec.keys {
		if o := sides[0].ring.Owner(k); o != self {
			t.Fatalf("Store.Prefetch was handed %q, owned by %s", k, o)
		}
	}
	sb, so := sides[0].group.Stats(), sides[1].group.Stats()
	sb.Prefetched, sb.PrefetchResident = so.Prefetched, so.PrefetchResident
	if sb != so {
		t.Fatalf("node A's engine counters differ:\n parsed ahead %+v\n one by one   %+v", sb, so)
	}
}
