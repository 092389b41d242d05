package server

// Tests of the two-phase batch: commands owned by a remote peer are queued
// while the batch is parsed and travel in one pipelined exchange per owner.
// The old path (one blocking round trip per forwarded command) is the
// oracle: a batch must answer exactly as the same commands sent one per
// round trip.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/overload"
	"pamakv/internal/penalty"
	"pamakv/internal/proto"
)

// readUntil reads from cl until the stream ends with suffix and returns
// everything before it.
func readUntil(t *testing.T, cl *client, suffix string) string {
	t.Helper()
	cl.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer cl.conn.SetReadDeadline(time.Time{})
	var got []byte
	for !bytes.HasSuffix(got, []byte(suffix)) {
		b, err := cl.r.ReadByte()
		if err != nil {
			t.Fatalf("stream ended (%v) before %q; got %q", err, suffix, got)
		}
		got = append(got, b)
	}
	return string(got[:len(got)-len(suffix)])
}

const versionLine = "VERSION pamakv/1.0\r\n"

// casToken matches the token of a gets VALUE header: tokens count the
// owner's stores, so two runs of one sequence issue different ones.
var casToken = regexp.MustCompile(`(?m)^(VALUE \S+ \d+ \d+) \d+\r$`)

// answerEach sends cmds one per round trip and returns their answers, CAS
// tokens masked. A noreply command has no reply to wait for, so every command
// is followed by a version round trip (answered locally).
func answerEach(t *testing.T, cl *client, cmds []string) string {
	t.Helper()
	var got string
	for _, c := range cmds {
		cl.send(t, c+"version\r\n")
		got += readUntil(t, cl, versionLine)
	}
	return casToken.ReplaceAllString(got, "$1 CAS\r")
}

// answerBatch sends cmds in one write and returns their answers, CAS tokens
// masked.
func answerBatch(t *testing.T, cl *client, cmds []string) string {
	t.Helper()
	cl.send(t, strings.Join(cmds, "")+"version\r\n")
	return casToken.ReplaceAllString(readUntil(t, cl, versionLine), "$1 CAS\r")
}

// TestBatchAnswersLikeRoundTrips: one batch mixing local and remote GETs,
// writes of every verb, multi-key gets spanning both owners, gets and
// noreply writes answers byte-identically (CAS tokens aside) to the same
// commands sent one per round trip — and does so in fewer exchanges than
// forwards.
func TestBatchAnswersLikeRoundTrips(t *testing.T) {
	nodes := startCluster(t, 2, cluster.Config{}, nil)
	l1, l2 := keyOwnedBy(t, nodes, 0, "la"), keyOwnedBy(t, nodes, 0, "lb")
	r1, r2 := keyOwnedBy(t, nodes, 1, "ra"), keyOwnedBy(t, nodes, 1, "rb")
	r3, rn := keyOwnedBy(t, nodes, 1, "rc"), keyOwnedBy(t, nodes, 1, "rn")
	gone := keyOwnedBy(t, nodes, 1, "gone")

	// The sequence rewrites every key it reads before reading it, so it
	// answers the same on a second run.
	cmds := []string{
		"delete " + r3 + " noreply\r\n",
		"set " + l1 + " 0 0 2\r\nl1\r\n",
		"set " + l2 + " 0 0 2\r\nl2\r\n",
		"set " + r1 + " 5 0 2\r\nr1\r\n",
		"set " + r2 + " 0 0 2 noreply\r\nr2\r\n",
		"set " + rn + " 0 0 2\r\n10\r\n",
		"get " + l1 + "\r\n",
		"get " + r1 + "\r\n", // set then get of a remote key in one batch
		"get " + r1 + "\r\n",
		"gets " + r1 + "\r\n",
		"get " + l1 + " " + r1 + " " + l2 + " " + r2 + " " + gone + "\r\n",
		"gets " + r2 + " " + l1 + "\r\n",
		"incr " + rn + " 5\r\n",
		"decr " + rn + " 1 noreply\r\n",
		"get " + rn + "\r\n",
		"delete " + r2 + "\r\n",
		"delete " + r2 + "\r\n",
		"get " + r2 + "\r\n",
		"append " + r1 + " 0 0 1\r\nx\r\n",
		"prepend " + r1 + " 0 0 1 noreply\r\ny\r\n",
		"touch " + r1 + " 100\r\n",
		"add " + r3 + " 1 0 2\r\nr3\r\n",
		"add " + r3 + " 1 0 2\r\nzz\r\n",
		"replace " + gone + " 0 0 1\r\nq\r\n",
		"cas " + r1 + " 0 0 1 1\r\nc\r\n",
		"cas " + gone + " 0 0 1 1\r\nc\r\n",
		"incr " + r1 + " 1\r\n",
		"get " + r1 + " " + r3 + "\r\n",
		"set " + l2 + " 0 0 2\r\nL2\r\n",
		"delete " + l1 + " noreply\r\n",
		"get " + l1 + " " + l2 + "\r\n",
		"bogus\r\n",
	}
	cl := dial(t, nodes[0].addr)
	want := answerEach(t, cl, cmds)
	before := nodes[0].srv.Stats()
	got := answerBatch(t, cl, cmds)
	after := nodes[0].srv.Stats()
	if got != want {
		t.Fatalf("batch answered\n%q\none command per round trip answered\n%q", got, want)
	}
	if !strings.Contains(got, "VALUE "+r1+" 5 2\r\nr1\r\n") {
		t.Fatalf("set then get of a remote key in one batch did not return the new value: %q", got)
	}
	forwards := after.PeerForwards - before.PeerForwards
	exchanges := after.PeerExchanges - before.PeerExchanges
	if cmds := after.PeerExchangedCmds - before.PeerExchangedCmds; cmds != forwards {
		t.Errorf("exchanges carried %d commands, %d were forwarded", cmds, forwards)
	}
	// The batch arrives in one write; even if TCP splits it once or twice
	// the exchanges stay far below one per forward.
	if forwards < 20 || exchanges > 3 {
		t.Errorf("batch of %d forwards took %d exchanges, want 1 (3 at most)", forwards, exchanges)
	}
	if after.PeerErrors != 0 {
		t.Errorf("PeerErrors = %d", after.PeerErrors)
	}
}

// newLargeValueEngine builds an engine of the default geometry, whose
// largest class holds values of nearly proto.MaxDataLen.
func newLargeValueEngine(t testing.TB) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{CacheBytes: 64 << 20, StoreValues: true, WindowLen: 10_000}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func setCmd(key, val string) string {
	return fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val)
}

// TestBatchSplitsFullExchange: an owner's exchange takes no more requests
// past maxExchangeBytes; what is queued is completed on the spot and the
// batch goes on — between two commands, and between two keys of one get —
// answering exactly as one command per round trip does.
func TestBatchSplitsFullExchange(t *testing.T) {
	nodes := startClusterOn(t, 2, cluster.Config{}, nil, newLargeValueEngine)
	l1 := keyOwnedBy(t, nodes, 0, "l")
	r1, r2, r3 := keyOwnedBy(t, nodes, 1, "ra"), keyOwnedBy(t, nodes, 1, "rb"), keyOwnedBy(t, nodes, 1, "rc")
	ka, kb, kc := keyOwnedBy(t, nodes, 1, "ka"), keyOwnedBy(t, nodes, 1, "kb"), keyOwnedBy(t, nodes, 1, "kc")
	fill := keyOwnedBy(t, nodes, 1, "fill")
	third := func(c string) string { return strings.Repeat(c, 12<<10) }
	// fill's request leaves its exchange room for "get <ka>" and not for kb.
	fillVal := strings.Repeat("f", maxExchangeBytes-len(setCmd(fill, "12345"))+1-len(ka))
	cmds := []string{
		setCmd(l1, "l1"), setCmd(ka, "a"), setCmd(kb, "b"), setCmd(kc, "c"),
		setCmd(r1, third("1")),
		"get " + l1 + "\r\n",
		setCmd(r2, third("2")),
		"get " + r1 + "\r\n",
		setCmd(r3, third("3")), // a third does not fit with two
		"get " + r2 + " " + l1 + " " + r3 + "\r\n",
		setCmd(fill, fillVal),
		"get " + ka + " " + l1 + " " + kb + " " + kc + "\r\n",
		"gets " + r1 + "\r\n",
		"delete " + fill + " noreply\r\n",
		"get " + fill + " " + l1 + "\r\n",
	}
	cl := dial(t, nodes[0].addr)
	want := answerEach(t, cl, cmds)
	before := nodes[0].srv.Stats()
	got := answerBatch(t, cl, cmds)
	after := nodes[0].srv.Stats()
	if got != want {
		t.Fatalf("batch answered %d bytes, one command per round trip %d; first difference at %d", len(got), len(want), diffAt(got, want))
	}
	// r1..r3 need two exchanges, fill shares one with neither r3 nor kb.
	if n := after.PeerExchanges - before.PeerExchanges; n < 4 {
		t.Errorf("batch took %d exchanges, want at least 4", n)
	}
	if after.PeerErrors != 0 {
		t.Errorf("PeerErrors = %d", after.PeerErrors)
	}
}

func diffAt(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestBatchLargeValuesDoNotStall: two GETs of a 1 MiB remote value followed
// by megabytes of SETs for the same owner, which answers in batches shorter
// than the relay's and has small socket buffers. Written in one piece, the
// owner would block flushing GET replies the relay is not reading yet while
// the relay blocks writing SET bodies the owner is not reading.
func TestBatchLargeValuesDoNotStall(t *testing.T) {
	const sets = 128
	val := strings.Repeat("v", proto.MaxDataLen)
	nodes := startWithFakeOwners(t, Options{MaxPipeline: 256}, func(conn net.Conn) {
		tc := conn.(*net.TCPConn)
		tc.SetReadBuffer(256 << 10)
		tc.SetWriteBuffer(256 << 10)
		r := bufio.NewReaderSize(conn, 1<<16)
		p := proto.NewParser(r)
		var out []byte
		for n := 1; ; n++ {
			cmd, err := p.ReadCommand()
			if err != nil {
				return
			}
			if cmd.Name == "get" {
				out = proto.AppendEnd(proto.AppendValue(out, cmd.Keys[0], 0, []byte(val)))
			} else {
				out = proto.AppendLine(out, "STORED")
			}
			if n%4 == 0 || r.Buffered() == 0 {
				if _, err := conn.Write(out); err != nil {
					return
				}
				out = out[:0]
			}
		}
	})
	key := keyOwnedBy(t, nodes, 1, "k")
	// The SETs are smaller than the relay's read buffer, so it finds the
	// next one buffered behind each and takes them all into one batch.
	get := "get " + key + "\r\n"
	got1 := fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", key, len(val), val)
	req := get + get + strings.Repeat(setCmd(key, val[:60<<10]), sets)
	want := got1 + got1 + strings.Repeat("STORED\r\n", sets)
	cl := dial(t, nodes[0].addr)
	sent := make(chan error, 1)
	go func() {
		_, err := io.WriteString(cl.conn, req)
		sent <- err
	}()
	cl.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, len(want))
	if n, err := io.ReadFull(cl.r, got); err != nil {
		t.Fatalf("read %d of %d reply bytes: %v; tail %q", n, len(got), err, got[max(0, n-80):n])
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		at := diffAt(string(got), want)
		t.Fatalf("replies differ from byte %d: %q", at, got[at:min(at+80, len(got))])
	}
	if st := nodes[0].srv.Stats(); st.PeerErrors != 0 {
		t.Errorf("PeerErrors = %d", st.PeerErrors)
	}
}

// startWithFakeOwners boots one real node (index 0 of the result) whose
// peers are scripted listeners: every connection peer i accepts is handed to
// serves[i]. The peer clients make no transport retries, so a scripted
// failure fails the exchange.
func startWithFakeOwners(t *testing.T, opts Options, serves ...func(conn net.Conn)) []*cnode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	members := []string{ln.Addr().String()}
	for _, serve := range serves {
		fln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fln.Close() })
		go func() {
			for {
				conn, err := fln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					serve(conn)
				}()
			}
		}()
		members = append(members, fln.Addr().String())
	}
	p, err := cluster.New(cluster.Config{
		Self:    members[0],
		Members: members,
		Client:  cluster.ClientOptions{Retries: -1, DialTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cluster = p
	srv := New(newClusterEngine(t), opts)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(); p.Close() })
	nodes := []*cnode{{srv: srv, peers: p, addr: members[0]}}
	for _, m := range members[1:] {
		nodes = append(nodes, &cnode{peers: p, addr: m})
	}
	return nodes
}

// TestBatchWritesEveryOwnerBeforeReading: each of two owners withholds its
// reply until the other has received its request. A node that finished one
// owner's round trip before starting the next would never get an answer.
func TestBatchWritesEveryOwnerBeforeReading(t *testing.T) {
	var arrived [2]chan struct{}
	owner := func(me int) func(net.Conn) {
		arrived[me] = make(chan struct{})
		return func(conn net.Conn) {
			cmd, err := proto.NewParser(bufio.NewReader(conn)).ReadCommand()
			if err != nil {
				return
			}
			close(arrived[me])
			select {
			case <-arrived[1-me]:
				conn.Write(proto.AppendEnd(proto.AppendValue(nil, cmd.Keys[0], 0, []byte("v"))))
			case <-time.After(2 * time.Second):
			}
		}
	}
	nodes := startWithFakeOwners(t, Options{}, owner(0), owner(1))
	ka, kb := keyOwnedBy(t, nodes, 1, "a"), keyOwnedBy(t, nodes, 2, "b")
	cl := dial(t, nodes[0].addr)
	cl.send(t, "get "+ka+"\r\nget "+kb+"\r\nversion\r\n")
	want := "VALUE " + ka + " 0 1\r\nv\r\nEND\r\nVALUE " + kb + " 0 1\r\nv\r\nEND\r\n"
	if got := readUntil(t, cl, versionLine); got != want {
		t.Fatalf("two-owner batch answered %q, want %q", got, want)
	}
	if st := nodes[0].srv.Stats(); st.PeerExchanges != 2 || st.PeerExchangedCmds != 2 {
		t.Errorf("PeerExchanges = %d, PeerExchangedCmds = %d, want 2 and 2", st.PeerExchanges, st.PeerExchangedCmds)
	}
}

// TestBatchOwnerDiesMidExchange: the owner reads the batch's requests and
// dies without answering. Every forwarded write gets SERVER_ERROR, every
// forwarded GET misses (or falls back to the local backend), local commands
// are unaffected, and the connection keeps serving.
func TestBatchOwnerDiesMidExchange(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend *backend.Store
	}{
		{"miss", nil},
		{"fallback", backend.New(penalty.Uniform(0.001), nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startWithFakeOwners(t, Options{Backend: tc.backend, HotCacheBytes: -1}, func(conn net.Conn) {
				// Take the first request off the wire, then die.
				proto.NewParser(bufio.NewReader(conn)).ReadCommand()
			})
			local, remote := keyOwnedBy(t, nodes, 0, "l"), keyOwnedBy(t, nodes, 1, "r")
			cl := dial(t, nodes[0].addr)
			cl.send(t, "set "+local+" 0 0 1\r\nv\r\n"+
				"set "+remote+" 0 0 1\r\na\r\n"+
				"set "+remote+" 0 0 1 noreply\r\nb\r\n"+
				"get "+remote+"\r\n"+
				"delete "+remote+"\r\n"+
				"get "+local+"\r\n"+
				"version\r\n")
			got := readUntil(t, cl, versionLine)
			unavailable := "SERVER_ERROR peer " + nodes[1].addr + " unavailable\r\n"
			head, tail := "STORED\r\n"+unavailable, "END\r\n"+unavailable+"VALUE "+local+" 0 1\r\nv\r\nEND\r\n"
			if !strings.HasPrefix(got, head) || !strings.HasSuffix(got, tail) {
				t.Fatalf("batch answered %q, want %q ... %q", got, head, tail)
			}
			// Between them: the forwarded get's outcome.
			value := got[len(head) : len(got)-len(tail)]
			if tc.backend == nil && value != "" {
				t.Fatalf("forwarded get without a backend answered %q, want a miss", value)
			}
			if tc.backend != nil && !strings.HasPrefix(value, "VALUE "+remote+" 0 100\r\n") {
				t.Fatalf("forwarded get with a backend answered %q, want the 100-byte fallback value", value)
			}
			st := nodes[0].srv.Stats()
			if st.PeerErrors != 4 || st.PeerForwards != 4 {
				t.Errorf("PeerErrors = %d, PeerForwards = %d, want 4 each (per command)", st.PeerErrors, st.PeerForwards)
			}
			if tc.backend != nil && st.PeerFallbacks != 1 {
				t.Errorf("PeerFallbacks = %d, want 1", st.PeerFallbacks)
			}
			// The connection is still good.
			if val, ok := getValue(t, cl, local); !ok || val != "v" {
				t.Fatalf("connection unusable after a failed exchange: (%q, %v)", val, ok)
			}
		})
	}
}

// TestBatchRelaysShedVerbatim: an owner that sheds answers every request
// with the shed line; a forwarded write relays it verbatim, a forwarded GET
// becomes a miss (never a local backend fetch), and each counts a PeerShed.
func TestBatchRelaysShedVerbatim(t *testing.T) {
	store := backend.New(penalty.Uniform(0.001), nil)
	nodes := startWithFakeOwners(t, Options{Backend: store}, func(conn net.Conn) {
		r := proto.NewParser(bufio.NewReader(conn))
		for {
			if _, err := r.ReadCommand(); err != nil {
				return
			}
			if _, err := conn.Write(proto.AppendShed(nil)); err != nil {
				return
			}
		}
	})
	remote := keyOwnedBy(t, nodes, 1, "r")
	cl := dial(t, nodes[0].addr)
	cl.send(t, "set "+remote+" 0 0 1\r\na\r\nget "+remote+"\r\nincr "+remote+" 1 noreply\r\nversion\r\n")
	if got, want := readUntil(t, cl, versionLine), "SERVER_ERROR "+proto.ShedMsg+"\r\nEND\r\n"; got != want {
		t.Fatalf("shed relay = %q, want %q", got, want)
	}
	st := nodes[0].srv.Stats()
	if st.PeerSheds != 3 || st.PeerErrors != 0 || st.PeerFallbacks != 0 {
		t.Errorf("PeerSheds = %d, PeerErrors = %d, PeerFallbacks = %d, want 3, 0, 0", st.PeerSheds, st.PeerErrors, st.PeerFallbacks)
	}
	if store.Fetches() != 0 {
		t.Errorf("a shed GET cost %d backend fetches, want 0", store.Fetches())
	}
}

// TestBatchAllRemoteUnderLimitOne: with the admission limit at one slot, a
// 16-deep batch of remote commands must not wait in admission on slots its
// own queued commands hold — every command is served, none shed.
func TestBatchAllRemoteUnderLimitOne(t *testing.T) {
	nodes := startCluster(t, 2, cluster.Config{}, func(i int, o *Options) {
		if i == 0 {
			o.Overload = &overload.Config{
				MaxInflight:   1,
				MinLimit:      1,
				InitialLimit:  1,
				Target:        time.Second,
				SojournCutoff: 10 * time.Second,
			}
		}
	})
	remote := keyOwnedBy(t, nodes, 1, "r")
	cl := dial(t, nodes[0].addr)
	var batch string
	for i := 0; i < 8; i++ {
		batch += "set " + remote + " 0 0 1\r\nv\r\nget " + remote + "\r\n"
	}
	cl.send(t, batch+"version\r\n")
	start := time.Now()
	got := readUntil(t, cl, versionLine)
	if want := strings.Repeat("STORED\r\nVALUE "+remote+" 0 1\r\nv\r\nEND\r\n", 8); got != want {
		t.Fatalf("batch under limit 1 answered %q", got)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Errorf("batch took %v: it waited in admission on its own slots", e)
	}
	if st := nodes[0].srv.Stats(); st.Sheds != 0 {
		t.Errorf("Sheds = %d, want 0", st.Sheds)
	}
}

// TestForwardedWriteInvalidatesHotCacheAfterReply: a GET on another
// connection reads the old value from the owner while a forwarded write is
// in flight and backfills the hot cache after the write's queue-time
// invalidation. Once the owner has acknowledged the write, a GET through
// this node returns the written value: the racing copy of the old one does
// not outlive the write.
func TestForwardedWriteInvalidatesHotCacheAfterReply(t *testing.T) {
	gotGet, gotSet := make(chan struct{}), make(chan struct{})
	answerGet, answerSet := make(chan struct{}), make(chan struct{})
	var gets atomic.Int32
	nodes := startWithFakeOwners(t, Options{HotCacheTTL: time.Minute}, func(conn net.Conn) {
		r := proto.NewParser(bufio.NewReader(conn))
		for {
			cmd, err := r.ReadCommand()
			if err != nil {
				return
			}
			var out []byte
			switch {
			case cmd.Name == "set":
				close(gotSet)
				<-answerSet
				out = proto.AppendLine(out, "STORED")
			case gets.Add(1) == 1:
				close(gotGet)
				<-answerGet
				out = proto.AppendEnd(proto.AppendValue(out, cmd.Keys[0], 0, []byte("old")))
			default:
				out = proto.AppendEnd(proto.AppendValue(out, cmd.Keys[0], 0, []byte("new")))
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	})
	key := keyOwnedBy(t, nodes, 1, "k")
	reader, writer := dial(t, nodes[0].addr), dial(t, nodes[0].addr)

	reader.send(t, "get "+key+"\r\n")
	<-gotGet // the owner has read the old value for the reader
	writer.send(t, "set "+key+" 0 0 3\r\nnew\r\n")
	<-gotSet // queue-time invalidation done, write at the owner
	close(answerGet)
	if got := readUntil(t, reader, "END\r\n"); got != "VALUE "+key+" 0 3\r\nold\r\n" {
		t.Fatalf("racing get -> %q", got)
	}
	// The reader's reply left after its backfill: the hot cache holds "old".
	close(answerSet)
	if got := writer.line(t); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}
	for _, cl := range []*client{writer, reader} {
		if val, ok := getValue(t, cl, key); !ok || val != "new" {
			t.Fatalf("get after the write was acknowledged = (%q, %v), want \"new\": the pre-write copy outlived the write", val, ok)
		}
	}
}

// TestBatchGetAfterForwardedWriteSeesWrite: in one batch, a GET of a remote
// key, a SET that fills the key's exchange, a SET of the key and a GET of
// it. The full exchange completes when the key's SET is queued, and its GET
// backfills the pre-write value; the trailing GET must still read the
// write, not that copy.
func TestBatchGetAfterForwardedWriteSeesWrite(t *testing.T) {
	nodes := startClusterOn(t, 2, cluster.Config{}, nil, newLargeValueEngine)
	key, big := keyOwnedBy(t, nodes, 1, "k"), keyOwnedBy(t, nodes, 1, "big")
	owner := dial(t, nodes[1].addr)
	owner.send(t, setCmd(key, "v1"))
	if got := owner.line(t); got != "STORED" {
		t.Fatalf("set at the owner -> %q", got)
	}
	get := "get " + key + "\r\n"
	// big's request leaves its exchange one byte short of full.
	pad := strings.Repeat("b", 20_000)
	bigVal := strings.Repeat("b", maxExchangeBytes-1-len(get)-len(setCmd(big, pad))+len(pad))
	cl := dial(t, nodes[0].addr)
	got := answerBatch(t, cl, []string{get, setCmd(big, bigVal), setCmd(key, "v2"), get})
	want := "VALUE " + key + " 0 2\r\nv1\r\nEND\r\nSTORED\r\nSTORED\r\nVALUE " + key + " 0 2\r\nv2\r\nEND\r\n"
	if got != want {
		t.Fatalf("batch answered %q, want %q", got, want)
	}
}

// TestForwardedWriteKeepsOnlyStoredSets: the hot cache keeps the value of a
// forwarded plain set (exptime 0) its owner STORED. Every other write, every
// other reply, a failed exchange and a strained node drop the key's copy
// instead: the next GET reads the owner.
func TestForwardedWriteKeepsOnlyStoredSets(t *testing.T) {
	const (
		old   = "old"   // the owner's value before the write
		after = "owner" // its value once the write is in, whatever it wrote
	)
	shed := "SERVER_ERROR " + proto.ShedMsg
	strained := &overload.Config{MaxInflight: 1, MinLimit: 1, InitialLimit: 1,
		Target: time.Second, SojournCutoff: 10 * time.Second, TierHold: time.Hour}
	for _, tc := range []struct {
		name, write string
		reply       string // the owner's reply; "" drops the connection instead
		answer      string // what the client is told, when not the reply
		want        string // the next GET's answer: VALUE line and data
		overload    *overload.Config
	}{
		{name: "set", write: "set %s 7 0 3\r\nnew\r\n", reply: "STORED", want: "7 3\r\nnew"},
		{name: "set noreply", write: "set %s 7 0 3 noreply\r\nnew\r\n", reply: "STORED", want: "7 3\r\nnew"},
		{name: "set with expiry", write: "set %s 0 100 3\r\nnew\r\n", reply: "STORED"},
		{name: "set not stored", write: "set %s 0 0 3\r\nnew\r\n", reply: "NOT_STORED"},
		{name: "set shed", write: "set %s 0 0 3\r\nnew\r\n", reply: shed},
		{name: "set error", write: "set %s 0 0 3\r\nnew\r\n", reply: "SERVER_ERROR out of memory"},
		{name: "set exchange fails", write: "set %s 0 0 3\r\nnew\r\n", answer: "SERVER_ERROR peer PEER unavailable"},
		{name: "set strained", write: "set %s 0 0 3\r\nnew\r\n", reply: "STORED", overload: strained},
		{name: "add", write: "add %s 0 0 3\r\nnew\r\n", reply: "STORED"},
		{name: "replace", write: "replace %s 0 0 3\r\nnew\r\n", reply: "STORED"},
		{name: "cas", write: "cas %s 0 0 3 1\r\nnew\r\n", reply: "STORED"},
		{name: "append", write: "append %s 0 0 1\r\nx\r\n", reply: "STORED"},
		{name: "prepend", write: "prepend %s 0 0 1\r\nx\r\n", reply: "STORED"},
		{name: "incr", write: "incr %s 1\r\n", reply: "6"},
		{name: "decr", write: "decr %s 1\r\n", reply: "4"},
		{name: "touch", write: "touch %s 100\r\n", reply: "TOUCHED"},
		{name: "delete", write: "delete %s\r\n", reply: "DELETED"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cur atomic.Value // the owner's value of every key
			cur.Store(old)
			nodes := startWithFakeOwners(t, Options{HotCacheTTL: time.Minute, Overload: tc.overload}, func(conn net.Conn) {
				r := proto.NewParser(bufio.NewReader(conn))
				for {
					cmd, err := r.ReadCommand()
					if err != nil {
						return
					}
					var out []byte
					if cmd.Name == "get" {
						out = proto.AppendEnd(proto.AppendValue(out, cmd.Keys[0], 0, []byte(cur.Load().(string))))
					} else {
						cur.Store(after)
						if tc.reply == "" {
							return
						}
						out = proto.AppendLine(out, tc.reply)
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			})
			key := keyOwnedBy(t, nodes, 1, "k")
			cl := dial(t, nodes[0].addr)
			for i := 0; i < 2; i++ { // a miss that backfills, then a hot hit
				if val, ok := getValue(t, cl, key); !ok || val != old {
					t.Fatalf("get before the write = (%q, %v), want %q", val, ok, old)
				}
			}
			if hits := nodes[0].srv.Stats().HotHits; tc.overload == nil && hits != 1 {
				t.Fatalf("HotHits = %d before the write, want 1: no copy to drop", hits)
			}
			answer := tc.answer
			switch {
			case strings.Contains(tc.write, "noreply"):
			case answer == "":
				answer = tc.reply + "\r\n"
			default:
				answer = strings.Replace(answer, "PEER", nodes[1].addr, 1) + "\r\n"
			}
			cl.send(t, fmt.Sprintf(tc.write, key)+"version\r\n")
			if got := readUntil(t, cl, versionLine); got != answer {
				t.Fatalf("write answered %q, want %q", got, answer)
			}
			want := tc.want
			if want == "" {
				want = fmt.Sprintf("0 %d\r\n%s", len(after), after)
			}
			cl.send(t, "get "+key+"\r\n")
			if got, want := readUntil(t, cl, "END\r\n"), "VALUE "+key+" "+want+"\r\n"; got != want {
				t.Fatalf("get after the write answered %q, want %q", got, want)
			}
		})
	}
}

// TestForwardedGetAllocations pins the relay side of a forwarded GET at
// (amortized) zero allocations, alone and in a pipelined batch: replies are
// parsed in place and rendered straight into connection scratch. The hot
// cache is off, so every GET takes the hop. The count covers both
// in-process nodes and the client loop.
func TestForwardedGetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	nodes := startCluster(t, 2, cluster.Config{}, func(i int, o *Options) {
		o.HotCacheBytes = -1
	})
	for _, depth := range []int{1, 16} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			cl := dial(t, nodes[0].addr)
			var req []byte
			for i := 0; i < depth; i++ {
				key := keyOwnedBy(t, nodes, 1, "alloc"+string(rune('a'+i)))
				cl.send(t, "set "+key+" 0 0 3\r\nabc\r\n")
				if got := cl.line(t); got != "STORED" {
					t.Fatalf("set -> %q", got)
				}
				verb := "get "
				if i%4 == 3 {
					verb = "gets "
				}
				req = append(req, verb+key+"\r\n"...)
			}
			batch := func() {
				if _, err := cl.conn.Write(req); err != nil {
					t.Fatal(err)
				}
				for ends := 0; ends < depth; {
					line, err := cl.r.ReadSlice('\n')
					if err != nil {
						t.Fatal(err)
					}
					if bytes.HasPrefix(line, []byte("END")) {
						ends++
					}
				}
			}
			before := nodes[0].srv.Stats()
			allocs := testing.AllocsPerRun(200, batch)
			after := nodes[0].srv.Stats()
			if hits := after.PeerHits - before.PeerHits; hits != uint64(201*depth) {
				t.Fatalf("PeerHits = %d over 201 batches of %d forwarded GETs", hits, depth)
			}
			if perGet := allocs / float64(depth); perGet > 0.1 {
				t.Fatalf("a forwarded GET allocates %.2f objects (%.1f per %d-deep batch), want 0", perGet, allocs, depth)
			}
		})
	}
}
