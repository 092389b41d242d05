package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"
)

func drawOps(sp *spec, conn int, seed uint64, n int) []op {
	s := newStream(sp, conn, seed)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	for _, sp := range specs {
		a, b := drawOps(sp, 0, 7, 5000), drawOps(sp, 0, 7, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d differs between two streams of seed 7: %+v vs %+v", sp.name, i, a[i], b[i])
			}
		}
		c := drawOps(sp, 0, 8, 5000)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same > len(a)/2 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of %d requests", sp.name, same, len(a))
		}
		if d := drawOps(sp, 1, 7, 5000); sp.partitioned {
			for i := range d {
				if !d[i].cold && d[i].id < sp.keys/uint32(sp.conns) {
					t.Fatalf("%s: connection 1 asked for key %d of connection 0's slice", sp.name, d[i].id)
				}
			}
		}
	}
}

func TestZipfShape(t *testing.T) {
	const n, draws = 1 << 16, 400_000
	z := newZipf(n, 0.99)
	r := rng{s: 1}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.rank(r.float())
		if k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// P(rank 0) = 1/zeta(n).
	want := 1 / z.zetan
	if got := float64(counts[0]) / draws; math.Abs(got-want)/want > 0.05 {
		t.Errorf("rank 0 drawn with frequency %.4f, want %.4f", got, want)
	}
	// The head outweighs the tail: the top 1% of ranks take most requests.
	head := 0
	for _, c := range counts[:n/100] {
		head += c
	}
	if share := float64(head) / draws; share < 0.55 || share > 0.75 {
		t.Errorf("top 1%% of ranks took %.2f of requests, want about 0.6-0.7 for theta 0.99", share)
	}
	for i := 1; i < 50; i++ {
		if counts[i*20] < counts[(i+1)*20]/2 {
			t.Errorf("popularity not decreasing: rank %d drawn %d times, rank %d %d times", i*20, counts[i*20], (i+1)*20, counts[(i+1)*20])
		}
	}
}

func TestSizeTableShape(t *testing.T) {
	sp := specByName("set_churn")
	got := map[int]int{}
	const n = 200_000
	for id := uint32(0); id < n; id++ {
		got[sizeOf(sp.sizes, id)]++
	}
	for _, b := range sp.sizes {
		share := float64(got[b.size]) / n
		if math.Abs(share-float64(b.pct)/100) > 0.01 {
			t.Errorf("size %d: share %.3f, want %.2f", b.size, share, float64(b.pct)/100)
		}
	}
	if sizeOf(sp.sizes, 12345) != sizeOf(sp.sizes, 12345) {
		t.Error("size is not a pure function of the key")
	}
}

// reply builds what a server would send for a GET hit.
func getReply(key string, val []byte) []byte {
	var b bytes.Buffer
	b.WriteString("VALUE " + key + " 0 " + strconv.Itoa(len(val)) + "\r\n")
	b.Write(val)
	b.WriteString("\r\nEND\r\n")
	return b.Bytes()
}

func TestCheckerCatchesCorruptedValue(t *testing.T) {
	sp := specByName("get_hot")
	o := op{kind: opGet, id: 42}
	key := string(appendKey(nil, o))
	good := appendValue(nil, 42, 0, 100)

	check := func(wire []byte, checked uint64) (bool, bool, error) {
		s := newStream(sp, 0, 1)
		s.checked = checked
		return s.check(&replyReader{br: bufio.NewReader(bytes.NewReader(wire))}, o, nil)
	}
	if ok, hit, err := check(getReply(key, good), 0); !ok || !hit || err != nil {
		t.Fatalf("a correct value was rejected: ok=%v hit=%v err=%v", ok, hit, err)
	}
	// A flipped body byte is caught on the 1-in-16 full compare...
	bad := bytes.Clone(good)
	bad[60] ^= 0x40
	if ok, _, err := check(getReply(key, bad), sampleEvery-1); ok || err != nil {
		t.Errorf("a corrupted body passed the full compare: ok=%v err=%v", ok, err)
	}
	// ...a wrong length or header on every reply.
	if ok, _, _ := check(getReply(key, good[:99]), 0); ok {
		t.Error("a truncated value passed")
	}
	hdr := bytes.Clone(good)
	hdr[3] ^= 1
	if ok, _, _ := check(getReply(key, hdr), 0); ok {
		t.Error("a value with another key's header passed")
	}
	if ok, _, _ := check([]byte("END\r\n"), 0); ok {
		t.Error("a miss on a preloaded key passed")
	}
	if ok, _, err := check([]byte("SERVER_ERROR busy (shed)\r\n"), 0); ok || err != nil {
		t.Errorf("a shed reply: ok=%v err=%v, want a failed operation and a usable connection", ok, err)
	}
	if _, _, err := check([]byte("VALUE other 0 3\r\nabc\r\nEND\r\n"), 0); err == nil {
		t.Error("a reply for another key did not break the connection")
	}
}

func TestVersionedModelFollowsReplies(t *testing.T) {
	sp := specByName("set_churn")
	s := newStream(sp, 0, 1)
	id := s.base + 5
	size := sizeOf(sp.sizes, id)
	key := string(appendKey(nil, op{id: id}))
	feed := func(wire []byte, o op) (bool, bool) {
		ok, hit, err := s.check(&replyReader{br: bufio.NewReader(bytes.NewReader(wire))}, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ok, hit
	}
	if ok, hit := feed([]byte("END\r\n"), op{kind: opGet, id: id}); !ok || hit {
		t.Error("a miss on a never-written key must be accepted")
	}
	if ok, _ := feed(getReply(key, appendValue(nil, id, 9, size)), op{kind: opGet, id: id}); ok {
		t.Error("a value for a never-written key passed")
	}
	feed([]byte("STORED\r\n"), op{kind: opSet, id: id, ver: 3})
	feed([]byte("STORED\r\n"), op{kind: opSet, id: id, ver: 4})
	if ok, hit := feed(getReply(key, appendValue(nil, id, 4, size)), op{kind: opGet, id: id}); !ok || !hit {
		t.Error("the last version written was rejected")
	}
	if ok, _ := feed(getReply(key, appendValue(nil, id, 3, size)), op{kind: opGet, id: id}); ok {
		t.Error("a stale version passed")
	}
}

func TestExactPercentiles(t *testing.T) {
	r := newRecorder(1000, 2)
	for i := 1; i <= 100; i++ { // second 0: 1..100 us
		r.add(500*time.Millisecond, time.Duration(i)*time.Microsecond)
	}
	for i := 1; i <= 100; i++ { // second 1: 101..200 us
		r.add(1500*time.Millisecond, time.Duration(100+i)*time.Microsecond)
	}
	r.add(2100*time.Millisecond, time.Second) // beyond the phase
	recs := []*recorder{r, newRecorder(10, 2)}
	if s := sliceLatency(recs, 0); s.samples != 100 || s.p50us != 50 || s.p99us != 99 || math.Abs(s.meanMS-0.0505) > 1e-12 {
		t.Errorf("slice 0: %+v, want 100 samples, p50 50, p99 99, mean 0.0505 ms", s)
	}
	if s := sliceLatency(recs, 1); s.samples != 100 || s.p50us != 150 || s.p99us != 199 {
		t.Errorf("slice 1: %+v, want 100 samples, p50 150, p99 199", s)
	}
	if s := sliceLatency(recs, 5); s.samples != 0 {
		t.Errorf("a slice nothing completed in: %+v", s)
	}
}

func TestQuietSlices(t *testing.T) {
	// 200 jiffies per slice; steal 0, 0, 60, 1, 0.
	var sl []sutSlice
	for _, s := range []uint64{0, 0, 60, 1, 0} {
		sl = append(sl, sutSlice{steal: s, total: 200})
	}
	keep, stolen := quietSlices(sl)
	if want := []bool{true, true, false, true, true}; !slices.Equal(keep, want) {
		t.Errorf("kept %v, want %v", keep, want)
	}
	if math.Abs(stolen-0.061) > 1e-9 {
		t.Errorf("stolen share %v, want 0.061", stolen)
	}
	// Uniformly noisy: the quieter half (and ties) still count.
	sl = sl[:0]
	for _, s := range []uint64{80, 60, 90, 70} {
		sl = append(sl, sutSlice{steal: s, total: 200})
	}
	if keep, _ := quietSlices(sl); !slices.Equal(keep, []bool{false, true, false, true}) {
		t.Errorf("kept %v of a uniformly noisy run, want the two quietest", keep)
	}
}

// TestMain lets the test binary stand in for the benchmark when the
// reference server is spawned from os.Executable.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-ref-serve" {
		_ = refServe(os.Args[2])
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestReference drives the reference server with every workload's reference
// traffic: it must answer all of it right, and its speed must read 1 at the
// nominal rate.
func TestReference(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	st := &refStore{m: map[string][]byte{}}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go st.serve(c)
		}
	}()
	for _, sp := range specs {
		if _, ok := refNominal[sp.name]; !ok {
			t.Fatalf("%s: no nominal reference speed", sp.name)
		}
		r := &reference{sp: refSpec(sp)}
		if r.lcs, err = dialLoad(r.sp, ln.Addr().String(), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := warm(r.lcs, time.Time{}); err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		att, failed, gets := tally(r.lcs)
		closeLoad(r.lcs)
		if failed != 0 || att < refKeys+10_000 || (sp.setFrac < 1 && gets == 0) {
			t.Errorf("%s: reference traffic attempted %d (%d GETs), failed %d", sp.name, att, gets, failed)
		}
		nom := refNominal[sp.name]
		b := refBurstResult{ops: nom.opsPerS / 2, time: time.Second, ticks: uint64(nom.opsPerS / 2 * nom.cpuUS * 2 / 1e6 * clockTick)}
		if s := r.speed(b); math.Abs(s-0.5) > 1e-9 {
			t.Errorf("%s: speed %v at half the nominal rate, want 0.5", sp.name, s)
		}
		if s := r.cpuSpeed(b); math.Abs(s-0.5) > 0.01 {
			t.Errorf("%s: CPU speed %v at twice the nominal CPU time per operation, want 0.5", sp.name, s)
		}
		if s := r.rttSpeed(2 * nom.p50US); math.Abs(s-0.5) > 1e-9 {
			t.Errorf("%s: round-trip speed %v at twice the nominal median, want 0.5", sp.name, s)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	t0 := tr.epoch
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	req := mkRef(1, spanRequest)
	set := mkRef(2, spanStoreSet)
	room := mkRef(3, spanMakeRoom)
	evict := mkRef(4, spanOnEvict)
	tr.sampled.Store(req.id())
	tr.endAt(evict, room, at(30), at(40))                  // 10 us inside make_room
	tr.endAt(room, set, at(20), at(60))                    // 40 us inside store.set
	tr.endAt(set, req, at(10), at(80))                     // 70 us inside the request
	tr.endAt(mkRef(5, spanRecordBatch), 0, at(0), at(500)) // background: orphan
	tr.endAt(req, 0, at(0), at(100))
	us := func(k spanKind) int64 { return tr.self(k) / 1000 }
	if us(spanRequest) != 30 || us(spanStoreSet) != 30 || us(spanMakeRoom) != 30 || us(spanOnEvict) != 10 {
		t.Errorf("self times request=%d set=%d make_room=%d on_evict=%d us, want 30 30 30 10",
			us(spanRequest), us(spanStoreSet), us(spanMakeRoom), us(spanOnEvict))
	}
	if s := tr.selfSumShare(); math.Abs(s-1) > 1e-9 {
		t.Errorf("self times sum to %.6f of the request, want 1", s)
	}
	if tr.self(spanRecordBatch) != 0 || tr.mean(spanRecordBatch) != 500_000 {
		t.Errorf("an orphan span must stay out of the self-time sum but in the mean")
	}
	if len(tr.raw) != 4 {
		t.Errorf("%d raw spans kept for the sampled request, want 4 (the orphan belongs to no request)", len(tr.raw))
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{109}, "ok"},
		{lower, []float64{100}, []float64{111}, "worse"},
		{lower, []float64{100}, []float64{50}, "ok"},
		{higher, []float64{100}, []float64{89}, "worse"},
		{higher, []float64{100}, []float64{120}, "ok"},
		{lower, []float64{100, 101, 99, 100}, []float64{80, 130, 100, 120}, "unresolved"},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s is better, a=%v b=%v: %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(s, 1), quartile(s, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if d := endToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if d := perLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, e, d)
		}
	}
}

// small shrinks a workload so that its set-up takes a fraction of a second.
func small(sp *spec) *spec {
	s := *sp
	s.keys = min(sp.keys, 4096)
	s.warmOps = 500
	return &s
}

func testServer(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err = buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	return bin, root
}

// TestSmoke runs every workload, shrunk, against the real server for one
// second: no operation may fail, every end-to-end metric must come out, and
// afterwards no child may be left holding its port.
func TestSmoke(t *testing.T) {
	bin, _ := testServer(t)
	var addrs []string
	for _, sp := range specs {
		sp := small(sp)
		var seen []string
		out, err := runOutside(sp, bin, 1, 1, 1, func(e *env) error {
			for _, c := range e.nodes {
				seen = append(seen, c.addr, c.admin)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		addrs = append(addrs, seen...)
		if !out.ok() || out.attempted < 50 {
			t.Errorf("%s: attempted %d, failed %d, broken %v", sp.name, out.attempted, out.failed, out.broken)
		}
		for _, d := range endToEnd {
			if v, ok := out.m[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive number", sp.name, d.Name, v, ok)
			}
		}
		idle := map[string]bool{"backend.fetches_per_kget": !sp.readthrough, "cluster.remote_share": !sp.cluster}
		for name, mustBeZero := range idle {
			if v := out.m[name]; mustBeZero && v != 0 {
				t.Errorf("%s: %s = %v on a workload that must leave that layer idle", sp.name, name, v)
			} else if !mustBeZero && v == 0 {
				t.Errorf("%s: %s = 0 on the workload that exercises that layer", sp.name, name)
			}
		}
		if f := out.m["cluster.remote_share"]; sp.cluster && f >= 1 {
			t.Errorf("cluster_forward: remote share %v, want some keys owned by node A", f)
		}
		if sp.name == "get_hot" && out.m["cache.evictions_per_kset"] != 0 {
			t.Errorf("get_hot: evictions on a key set that fits the cache many times over")
		}
	}
	children.mu.Lock()
	live := len(children.live)
	children.mu.Unlock()
	if live != 0 {
		t.Errorf("%d children still registered after the runs", live)
	}
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			t.Errorf("port %s is still held after the run: %v", a, err)
			continue
		}
		ln.Close()
	}
}

// TestTracedRun runs the traced mode on one workload and checks that every
// per-layer metric comes out, that the span file is written, and that self
// times add up to the request time.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run takes several seconds")
	}
	bin, root := testServer(t)
	res, err := runTraced(small(specByName("set_churn")), bin, root, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Errorf("per-layer metric %s = %+v (present %v)", d.Name, v, ok)
		}
	}
	if s := res.Metrics["trace.self_sum_share"].Value; math.Abs(s-1) > 0.10 {
		t.Errorf("self times sum to %.3f of the request time, want within 10%% of 1", s)
	}
	for _, name := range []string{"shard.span_set_us", "proto.parse_set_ns", "cache.set_evict_ns", "cluster.hop_us", "client.get_rtt_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on set_churn, want a positive time", name, res.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(filepath.Join(root, "benchmark", "out", "trace-set_churn.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	names := map[string]int{}
	for _, l := range lines {
		var s rawSpan
		if err := json.Unmarshal(l, &s); err != nil {
			t.Fatalf("span file line %q: %v", l, err)
		}
		if s.End < s.Start || s.Request == 0 {
			t.Fatalf("malformed span %+v", s)
		}
		names[s.Name]++
	}
	if names["request"] == 0 || names["store.set"] == 0 {
		t.Errorf("span file has %v, want request and store.set spans", names)
	}
}
