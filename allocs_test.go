package pamakv

// Allocation regression guards for the hot paths the observability layer
// instruments: the per-(class,subclass) attribution counters added to the
// engine must stay allocation-free, or the instrumentation would tax every
// request it measures.

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
	"pamakv/internal/server"
	"pamakv/internal/valuetable"
)

// TestEngineGetHitAllocs pins the metadata-mode GET-hit path at zero
// allocations per request (the configuration BenchmarkEngineGetHit runs).
func TestEngineGetHitAllocs(t *testing.T) {
	c, err := cache.New(cache.Config{
		CacheBytes: 64 << 20,
		WindowLen:  1 << 40, // no rollovers: windows are not the path under test
		Tracker:    cache.TrackerExact,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 10
	keys := make([]string, n)
	for i := range keys {
		keys[i] = kv.KeyString(uint64(i))
		if err := c.Set(keys[i], 100, 0.01, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	allocs := testing.AllocsPerRun(5000, func() {
		c.Get(keys[i&(n-1)], 0, 0, nil)
		i++
	})
	if allocs != 0 {
		t.Fatalf("GET hit allocates %.1f objects per request, want 0", allocs)
	}
}

// evictBodies are the value lengths the evicting store workloads cycle
// through; with a short key and the server's per-item overhead they land in
// four different slab classes (128 B, 512 B, 2 KiB, 4 KiB slots).
var evictBodies = [...]int{40, 300, 1200, 3000}

// evictingEngine returns a small value-storing engine under PAMA that is
// already full, with a key set so much larger than it (about ten times) that
// a SET of keys[i], cycling i, always finds its key long evicted: every store
// is an insert that evicts, spread over four classes. body(i) is the value
// to store under keys[i].
func evictingEngine(tb testing.TB) (c *cache.Cache, keys []string, body func(i int) []byte) {
	tb.Helper()
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  2 << 20,
		StoreValues: true,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		tb.Fatal(err)
	}
	var bodies [len(evictBodies)][]byte
	for i, n := range evictBodies {
		bodies[i] = []byte(strings.Repeat("e", n))
	}
	body = func(i int) []byte { return bodies[i%len(bodies)] }
	keys = make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	// Two passes: the first fills the cache, the second lets the free stacks,
	// the ghost regions and the item pool reach their steady size.
	for pass := 0; pass < 2; pass++ {
		for i, k := range keys {
			if err := c.Set(k, len(k)+len(body(i))+56, 0.01, 0, body(i)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c, keys, body
}

// TestEngineSetEvictAllocs pins the store path of a full value-storing
// engine at zero allocations per inserting SET: the evicted item's slot is the
// one the new key and value land in, the evicted item is the pooled one the
// insert takes, and its ghost is a record in a slice that has reached its
// steady size. (AllocsPerRun divides as integers: the page an occasional slab
// migration re-carves for another class averages out below one.)
func TestEngineSetEvictAllocs(t *testing.T) {
	c, keys, body := evictingEngine(t)
	evicted := c.Stats().Evictions
	var i int
	const runs = 5000
	allocs := testing.AllocsPerRun(runs, func() {
		k := keys[i%len(keys)]
		if err := c.Set(k, len(k)+len(body(i))+56, 0.01, 0, body(i)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got := c.Stats().Evictions - evicted; got < runs {
		t.Fatalf("%d SETs evicted only %d items: the cache is not full", runs, got)
	}
	if allocs != 0 {
		t.Fatalf("evicting SET allocates %.1f objects per request, want 0", allocs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSetEvictStaleAllocs pins an evicting SET of an engine with a stale
// table at zero allocations: the evicted item's key and value are copied into
// the table entry its own eviction of the oldest freed, whose buffer fits
// them, as every value is 100 bytes.
func TestEngineSetEvictStaleAllocs(t *testing.T) {
	stale := valuetable.New(256<<10, 0)
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  2 << 20,
		StoreValues: true,
		Stale:       stale,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(strings.Repeat("s", 100))
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
	}
	set := func(i int) {
		k := keys[i%len(keys)]
		if err := c.Set(k, len(k)+len(body)+56, 0.01, 0, body); err != nil {
			t.Fatal(err)
		}
	}
	// A pass over the keys fills the cache and then the table.
	for i := range keys {
		set(i)
	}
	before, staleBefore := c.Stats(), stale.Stats()
	i := len(keys)
	const runs = 5000
	allocs := testing.AllocsPerRun(runs, func() {
		set(i)
		i++
	})
	if got := c.Stats().Evictions - before.Evictions; got < runs {
		t.Fatalf("%d SETs evicted only %d items: the cache is not full", runs, got)
	}
	if got := stale.Stats().Evicts - staleBefore.Evicts; got < runs {
		t.Fatalf("%d evictions pushed out only %d stale entries: the table is not full", runs, got)
	}
	if allocs != 0 {
		t.Fatalf("evicting SET with a stale table allocates %.1f objects per request, want 0", allocs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSetOverwriteAllocs pins a store to a resident key of the same
// class at zero allocations: the engine keeps the item, its slot, the key at
// the slot's head and its index entry.
func TestEngineSetOverwriteAllocs(t *testing.T) {
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  2 << 20,
		StoreValues: true,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// keys[i] always takes a value of about evictBodies[i%4] bytes: a few
	// bytes shorter from one round to the next, never another class.
	keys := make([]string, 1<<8)
	bytes := []byte(strings.Repeat("o", evictBodies[len(evictBodies)-1]))
	set := func(i int) {
		k := keys[i%len(keys)]
		v := bytes[:evictBodies[i%len(evictBodies)]-i/len(keys)%7]
		if err := c.Set(k, len(k)+len(v)+56, 0.01, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("key%05d", i)
		set(i)
	}
	before := c.Stats()
	i := len(keys)
	const runs = 5000
	allocs := testing.AllocsPerRun(runs, func() {
		set(i)
		i++
	})
	after := c.Stats()
	if got := after.Overwrites - before.Overwrites; got != after.Sets-before.Sets || got < runs {
		t.Fatalf("%d of %d SETs overwrote in place, want all", got, after.Sets-before.Sets)
	}
	if allocs != 0 {
		t.Fatalf("overwriting SET allocates %.1f objects per request, want 0", allocs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// liveServer boots a value-storing engine of cacheBytes behind a real TCP
// listener, served with opts, and returns the engine and a connected client
// socket. The tests' options set no read/write deadlines, so the measurement
// sees only the serving path, not timer churn.
func liveServer(t *testing.T, cacheBytes int64, opts server.Options) (*cache.Cache, net.Conn) {
	t.Helper()
	c, err := cache.New(cache.Config{
		Geometry:    kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8},
		CacheBytes:  cacheBytes,
		StoreValues: true,
		WindowLen:   1 << 40,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(c, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return c, conn
}

// TestServedPipelinedGetHitAllocs is the tentpole's end-to-end gate: a
// pipelined batch of GET hits over live TCP — request parse, engine hit,
// response render, flush — must not allocate on the server side. The client
// side of the loop is itself allocation-free (prebuilt request bytes, exact
// preallocated response buffer), so AllocsPerRun's process-wide malloc count
// is the server's budget.
func TestServedPipelinedGetHitAllocs(t *testing.T) {
	const depth = 64
	_, conn := liveServer(t, 1<<24, server.Options{})
	body := strings.Repeat("v", 100)

	// Preload over the wire so the whole path under test is the public one.
	var fill []byte
	keys := make([]string, depth)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
		fill = append(fill, fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", keys[i], len(body), body)...)
	}
	if _, err := conn.Write(fill); err != nil {
		t.Fatal(err)
	}
	stored := make([]byte, depth*len("STORED\r\n"))
	if _, err := io.ReadFull(conn, stored); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(stored), "STORED\r\n") {
		t.Fatalf("preload reply %q", stored[:16])
	}

	var req, want []byte
	for _, k := range keys {
		req = append(req, "get "+k+"\r\n"...)
		want = append(want, fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", k, len(body), body)...)
	}
	resp := make([]byte, len(want))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
	})
	if string(resp) != string(want) {
		t.Fatalf("response diverged from expectation:\n%q", resp[:80])
	}
	perOp := allocs / depth
	if perOp > 0.25 {
		t.Fatalf("pipelined GET hit allocates %.3f objects per request end to end, want 0", perOp)
	}
}

// servedBudget is the allocation budget of one served store: want, with
// slack for the runtime's own background allocations. It holds under the
// race detector too, where sync.Pool drops a quarter of its Puts: a data
// block already in the read buffer draws no pooled buffer, and a batch
// larger than the buffer draws one only for each block that straddles it,
// since a chunk ends before such a block. The evicting gate's 73 KB batches
// read 0.00 allocations per store under -race.
func servedBudget(want float64) float64 { return want + 0.1 }

// servedBatchAllocs sends req, a pipelined batch of depth stores that each
// draw reply, over and over and returns the allocations per store, process
// wide. The first batch, sent before counting, may draw other replies: it
// warms the connection scratch and lets a test preload its keys.
func servedBatchAllocs(t *testing.T, conn net.Conn, req []byte, depth int, reply string) float64 {
	t.Helper()
	resp := make([]byte, depth*len(reply))
	send := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
	}
	send()
	allocs := testing.AllocsPerRun(100, send)
	if string(resp) != strings.Repeat(reply, depth) {
		t.Fatalf("batch reply %q, want %d times %q", resp, depth, reply)
	}
	return allocs / float64(depth)
}

// TestServedPipelinedSetOverwriteAllocs gates the store path end to end:
// overwrite SETs of resident keys are parsed in place in the read buffer,
// pass the parsed key to the engine as it is and are overwritten in place,
// so nothing is allocated per request.
func TestServedPipelinedSetOverwriteAllocs(t *testing.T) {
	const depth = 64
	eng, conn := liveServer(t, 1<<24, server.Options{})
	body := strings.Repeat("w", 100)
	var req []byte
	for i := 0; i < depth; i++ {
		req = append(req, fmt.Sprintf("set key%03d 0 0 %d\r\n%s\r\n", i, len(body), body)...)
	}
	perOp := servedBatchAllocs(t, conn, req, depth, "STORED\r\n")
	if st := eng.Stats(); st.Overwrites != st.Sets-depth {
		t.Fatalf("%d of %d SETs overwrote in place, want all but the first %d", st.Overwrites, st.Sets, depth)
	}
	if perOp > servedBudget(0) {
		t.Fatalf("pipelined overwrite SET allocates %.2f objects per request end to end, want 0", perOp)
	}
}

// TestServedPipelinedAddResidentAllocs: an add that finds its key resident
// stores nothing, so it allocates nothing — the key is copied by the engine,
// and only when it inserts an item.
func TestServedPipelinedAddResidentAllocs(t *testing.T) {
	const depth = 64
	eng, conn := liveServer(t, 1<<24, server.Options{})
	var fill, req []byte
	for i := 0; i < depth; i++ {
		fill = append(fill, fmt.Sprintf("set key%03d 0 0 1\r\nx\r\n", i)...)
		req = append(req, fmt.Sprintf("add key%03d 0 0 3\r\nnew\r\n", i)...)
	}
	if got := servedBatchAllocs(t, conn, fill, depth, "STORED\r\n"); got > servedBudget(0) {
		t.Fatalf("preload allocates %.2f objects per request, want 0", got)
	}
	sets := eng.Stats().Sets
	perOp := servedBatchAllocs(t, conn, req, depth, "NOT_STORED\r\n")
	if got := eng.Stats().Sets; got != sets {
		t.Fatalf("failing adds stored %d items", got-sets)
	}
	if perOp > servedBudget(0) {
		t.Fatalf("pipelined add of a resident key allocates %.2f objects per request end to end, want 0", perOp)
	}
}

// TestServedPipelinedSetEvictAllocs is the same gate with the cache full:
// every SET inserts a key that was evicted long ago, into one of four slab
// classes, and evicts to do so. The slot the victim gives back is the slot
// the new key and value land in, so the budget is zero.
func TestServedPipelinedSetEvictAllocs(t *testing.T) {
	const depth = 64
	const nkeys = 1 << 13 // ~9 MiB of items against a 1 MiB cache
	eng, conn := liveServer(t, 1<<20, server.Options{})

	batches := make([][]byte, nkeys/depth)
	for b := range batches {
		for j := 0; j < depth; j++ {
			i := b*depth + j
			n := evictBodies[i%len(evictBodies)]
			batches[b] = append(batches[b], fmt.Sprintf("set key%05d 0 0 %d\r\n%s\r\n", i, n, strings.Repeat("e", n))...)
		}
	}
	resp := make([]byte, depth*len("STORED\r\n"))
	var next int
	send := func() {
		if _, err := conn.Write(batches[next%len(batches)]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Two passes over the key space fill the cache and settle the free
	// stacks, ghost regions and connection scratch.
	for next < 2*len(batches) {
		send()
	}
	evicted := eng.Stats().Evictions
	const runs = 100
	allocs := testing.AllocsPerRun(runs, send)
	if !strings.HasSuffix(string(resp), "STORED\r\n") {
		t.Fatalf("reply tail %q", resp[len(resp)-16:])
	}
	if got := eng.Stats().Evictions - evicted; got < runs*depth {
		t.Fatalf("%d SETs evicted only %d items: the cache is not full", runs*depth, got)
	}
	perOp := allocs / depth
	if perOp > servedBudget(0) {
		t.Fatalf("pipelined evicting SET allocates %.2f objects per request end to end, want 0", perOp)
	}
}

// TestServedReadThroughMissAllocs gates a served read-through miss end to
// end: pipelined GETs of keys evicted long ago, each fetched through the
// backend's per-key flight, filled in place in the reply and copied from
// there into the slot its evicted predecessor gave back. The flight's call
// record is the one allocation left per miss: the flight shares no boxed
// result and no pooled body.
func TestServedReadThroughMissAllocs(t *testing.T) {
	const depth = 64
	const nkeys = 1 << 14 // ~3 MiB of items against a 1 MiB cache
	be := backend.New(penalty.Uniform(0.001), func(uint64) int { return 100 })
	eng, conn := liveServer(t, 1<<20, server.Options{Backend: be})

	batches := make([][]byte, nkeys/depth)
	for b := range batches {
		for j := 0; j < depth; j++ {
			batches[b] = append(batches[b], fmt.Sprintf("get key%05d\r\n", b*depth+j)...)
		}
	}
	reply := len("VALUE key00000 0 100\r\n") + 100 + len("\r\nEND\r\n")
	resp := make([]byte, depth*reply)
	var next int
	send := func() {
		if _, err := conn.Write(batches[next%len(batches)]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Two passes over the key space fill the cache and settle the free
	// stacks, ghost regions and connection scratch.
	for next < 2*len(batches) {
		send()
	}
	misses, fetches := eng.Stats().Misses, be.Fetches()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, send)
	if !strings.HasSuffix(string(resp), "\r\nEND\r\n") {
		t.Fatalf("reply tail %q", resp[len(resp)-16:])
	}
	if got, fetched := eng.Stats().Misses-misses, be.Fetches()-fetches; got < runs*depth || fetched < runs*depth {
		t.Fatalf("%d GETs missed %d times and fetched %d: the keys are not evicted", runs*depth, got, fetched)
	}
	perOp := allocs / depth
	if perOp > servedBudget(1) {
		t.Fatalf("pipelined read-through miss allocates %.2f objects per request end to end, want 1", perOp)
	}
}
