package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/core"
	"pamakv/internal/membership"
	"pamakv/internal/overload"
	"pamakv/internal/penalty"
	"pamakv/internal/tenant"
)

// readStats runs the in-band `stats` command and returns its key/value map.
func (c *client) readStats(t *testing.T) map[string]string {
	t.Helper()
	c.send(t, "stats\r\n")
	m := map[string]string{}
	for {
		l := c.line(t)
		if l == "END" {
			return m
		}
		parts := strings.SplitN(l, " ", 3)
		if len(parts) != 3 || parts[0] != "STAT" {
			t.Fatalf("bad stats line %q", l)
		}
		m[parts[1]] = parts[2]
	}
}

// httpGet fetches one admin endpoint body.
func httpGet(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestAdminEndToEnd drives a mixed workload through the TCP port and then
// checks every observability surface agrees: /metrics parses as Prometheus
// text, /statsz round-trips as JSON, and both reconcile with the in-band
// `stats` command.
func TestAdminEndToEnd(t *testing.T) {
	srv, addr := startServer(t, Options{})
	admin := NewAdmin(srv)
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go admin.Serve(aln)
	t.Cleanup(func() { admin.Close() })
	base := "http://" + aln.Addr().String()

	cl := dial(t, addr)
	// Mixed workload: stores across size classes and penalty bands, hits,
	// misses, a delete, a counter.
	for i := 0; i < 40; i++ {
		val := strings.Repeat("x", 20+i*17)
		cl.send(t, fmt.Sprintf("set key%d 0 0 %d\r\n%s\r\n", i, len(val), val))
		if got := cl.line(t); got != "STORED" {
			t.Fatalf("set key%d: %q", i, got)
		}
	}
	hits, misses := 0, 0
	for i := 0; i < 60; i++ {
		cl.send(t, fmt.Sprintf("get key%d\r\n", i))
		if l := cl.line(t); strings.HasPrefix(l, "VALUE ") {
			hits++
			cl.line(t) // body
			if end := cl.line(t); end != "END" {
				t.Fatalf("get tail: %q", end)
			}
		} else if l == "END" {
			misses++
		} else {
			t.Fatalf("get key%d: %q", i, l)
		}
	}
	cl.send(t, "delete key0\r\n")
	if got := cl.line(t); got != "DELETED" {
		t.Fatalf("delete: %q", got)
	}
	cl.send(t, "set n 0 0 1\r\n7\r\nincr n 3\r\n")
	if got := cl.line(t); got != "STORED" {
		t.Fatalf("set n: %q", got)
	}
	if got := cl.line(t); got != "10" {
		t.Fatalf("incr: %q", got)
	}
	if hits != 40 || misses != 20 {
		t.Fatalf("workload shape: %d hits, %d misses", hits, misses)
	}
	stats := cl.readStats(t)

	t.Run("healthz", func(t *testing.T) {
		body, _ := httpGet(t, base+"/healthz")
		if strings.TrimSpace(body) != "ok" {
			t.Fatalf("healthz = %q", body)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		body, ctype := httpGet(t, base+"/metrics")
		if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
			t.Errorf("content type %q", ctype)
		}
		samples := map[string]float64{}
		typed := map[string]bool{}
		var lastBucketCum = map[string]float64{}
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				f := strings.Fields(line)
				if len(f) != 4 {
					t.Fatalf("bad TYPE line %q", line)
				}
				if typed[f[2]] {
					t.Errorf("duplicate TYPE for %s", f[2])
				}
				typed[f[2]] = true
				continue
			}
			if strings.HasPrefix(line, "# HELP ") {
				continue
			}
			if strings.HasPrefix(line, "#") || line == "" {
				t.Fatalf("unexpected comment/blank line %q", line)
			}
			if !promLine.MatchString(line) {
				t.Fatalf("line does not parse as a Prometheus sample: %q", line)
			}
			sp := strings.LastIndexByte(line, ' ')
			name, valStr := line[:sp], line[sp+1:]
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil && valStr != "NaN" && valStr != "+Inf" {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
			samples[name] = v
			// Cumulative `le` buckets must be non-decreasing per series.
			if i := strings.Index(name, "_bucket{"); i >= 0 {
				series := name[:i] + histSeriesKey(name)
				if v < lastBucketCum[series] {
					t.Errorf("bucket counts decrease in %q", name)
				}
				lastBucketCum[series] = v
			}
		}
		// Every metric family used a TYPE header.
		for name := range samples {
			fam := name
			if i := strings.IndexByte(fam, '{'); i >= 0 {
				fam = fam[:i]
			}
			fam = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fam, "_bucket"), "_sum"), "_count")
			if !typed[fam] {
				t.Errorf("sample %q has no TYPE header (family %q)", name, fam)
			}
		}
		// The acceptance surface: engine counters, per-class slabs,
		// subclass attribution, and the GET latency histogram.
		wantGets := float64(hits + misses)
		if samples["pamakv_gets_total"] != wantGets {
			t.Errorf("pamakv_gets_total = %v, want %v", samples["pamakv_gets_total"], wantGets)
		}
		if samples["pamakv_hits_total"] != float64(hits) {
			t.Errorf("pamakv_hits_total = %v, want %d", samples["pamakv_hits_total"], hits)
		}
		for _, want := range []string{
			`pamakv_slabs{class="0"}`,
			`pamakv_overwrites_total`,
			`pamakv_request_seconds_count{cmd="get"}`,
			`pamakv_request_seconds_bucket{cmd="get",le="+Inf"}`,
			`pamakv_go_gc_cycles_total`,
			`pamakv_go_gc_pause_seconds_total`,
		} {
			if _, ok := samples[want]; !ok {
				t.Errorf("missing sample %s", want)
			}
		}
		if samples["pamakv_go_heap_alloc_bytes"] <= 0 {
			t.Errorf("pamakv_go_heap_alloc_bytes = %v", samples["pamakv_go_heap_alloc_bytes"])
		}
		// The deleted key0 (80 bytes: class 1) left its slot on the stack of
		// class 1's page, which the memory split counts outside the heap.
		if got := samples[`pamakv_free_value_buffers{class="1"}`]; got < 1 {
			t.Errorf(`pamakv_free_value_buffers{class="1"} = %v, want its free slots`, got)
		}
		for _, name := range []string{"pamakv_value_slab_bytes", "pamakv_go_heap_inuse_bytes"} {
			if samples[name] <= 0 {
				t.Errorf("%s = %v", name, samples[name])
			}
		}
		var subHits float64
		for name, v := range samples {
			if strings.HasPrefix(name, "pamakv_subclass_hits_total{") {
				subHits += v
			}
		}
		if subHits != float64(hits) {
			t.Errorf("sum of pamakv_subclass_hits_total = %v, want %d", subHits, hits)
		}
		// GET latency histogram observed one sample per GET (and the
		// cumulative +Inf bucket equals the count).
		getCount := samples[`pamakv_request_seconds_count{cmd="get"}`]
		if getCount != wantGets {
			t.Errorf("request_seconds_count{get} = %v, want %v", getCount, wantGets)
		}
		if inf := samples[`pamakv_request_seconds_bucket{cmd="get",le="+Inf"}`]; inf != getCount {
			t.Errorf("+Inf bucket %v != count %v", inf, getCount)
		}
	})

	t.Run("statsz", func(t *testing.T) {
		body, ctype := httpGet(t, base+"/statsz")
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("content type %q", ctype)
		}
		var doc Statsz
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("unmarshal /statsz: %v", err)
		}
		// Round trip: re-encoding must be stable (no NaN can have slipped
		// in; json.Marshal would have failed already on the server side).
		again, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var doc2 Statsz
		if err := json.Unmarshal(again, &doc2); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if doc2.Engine != doc.Engine {
			t.Errorf("engine stats changed across round trip")
		}

		// Reconciliation with the in-band stats command.
		if got := strconv.FormatUint(doc.Engine.Gets, 10); got != stats["cmd_get"] {
			t.Errorf("statsz gets %s != stats cmd_get %s", got, stats["cmd_get"])
		}
		if got := strconv.FormatUint(doc.Engine.Hits, 10); got != stats["get_hits"] {
			t.Errorf("statsz hits %s != stats get_hits %s", got, stats["get_hits"])
		}
		if got := strconv.FormatUint(doc.Engine.Misses, 10); got != stats["get_misses"] {
			t.Errorf("statsz misses %s != stats get_misses %s", got, stats["get_misses"])
		}
		if doc.Engine.Hits+doc.Engine.Misses != doc.Engine.Gets {
			t.Errorf("hits %d + misses %d != gets %d", doc.Engine.Hits, doc.Engine.Misses, doc.Engine.Gets)
		}
		if doc.HitRatio == nil {
			t.Fatal("hit_ratio omitted despite traffic")
		}
		if want := float64(doc.Engine.Hits) / float64(doc.Engine.Gets); *doc.HitRatio != want {
			t.Errorf("hit_ratio = %v, want %v", *doc.HitRatio, want)
		}
		if doc.Introspection == nil {
			t.Fatal("introspection missing for *cache.Cache store")
		}
		in := doc.Introspection
		var subHits uint64
		for _, row := range in.SubHits {
			for _, n := range row {
				subHits += n
			}
		}
		if subHits != doc.Engine.Hits {
			t.Errorf("introspection sum(SubHits) = %d, want %d", subHits, doc.Engine.Hits)
		}
		// One value page per slab: each class stacks the slots its pages hold
		// beyond its residents.
		slabs := 0
		for _, n := range in.Slabs {
			slabs += n
		}
		if len(in.FreeValueBuffers) != in.Classes || slabs == 0 || in.ValueSlabBytes%int64(slabs) != 0 {
			t.Fatalf("free_value_buffers = %v over %d classes, value_slab_bytes %d over %d slabs",
				in.FreeValueBuffers, in.Classes, in.ValueSlabBytes, slabs)
		}
		slabSize := int(in.ValueSlabBytes) / slabs
		for cl, free := range in.FreeValueBuffers {
			if want := in.Slabs[cl]*(slabSize/in.SlotSizes[cl]) - in.UsedSlots[cl]; free != want {
				t.Errorf("class %d stacks %d free value slots, its pages have %d", cl, free, want)
			}
		}
		if doc.Runtime.HeapAllocBytes == 0 || doc.Runtime.HeapInuseBytes == 0 {
			t.Errorf("runtime section empty: %+v", doc.Runtime)
		}
		if !strings.Contains(body, `"gc_cycles"`) || !strings.Contains(body, `"gc_pause_seconds_total"`) {
			t.Errorf("runtime keys missing from /statsz")
		}
		if doc.Latencies["get"].Count != doc.Engine.Gets {
			t.Errorf("latency get count = %d, want %d", doc.Latencies["get"].Count, doc.Engine.Gets)
		}
		if doc.Latencies["get"].P99 <= 0 || doc.Latencies["get"].Mean <= 0 {
			t.Errorf("degenerate get latency summary: %+v", doc.Latencies["get"])
		}
		// Slabs per class must agree with the stats command's slabs_class_N.
		for cl, n := range doc.Slabs {
			key := "slabs_class_" + strconv.Itoa(cl)
			if n == 0 {
				if _, ok := stats[key]; ok {
					t.Errorf("stats has %s but statsz reports 0", key)
				}
				continue
			}
			if stats[key] != strconv.Itoa(n) {
				t.Errorf("%s = %s in stats, %d in statsz", key, stats[key], n)
			}
		}
	})

	t.Run("pprof", func(t *testing.T) {
		body, _ := httpGet(t, base+"/debug/pprof/cmdline")
		if len(body) == 0 {
			t.Error("pprof cmdline empty")
		}
	})
}

// histSeriesKey extracts the label set minus `le` so buckets of one series
// are compared against each other only.
func histSeriesKey(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	labels := strings.TrimSuffix(name[i+1:], "}")
	var keep []string
	for _, l := range strings.Split(labels, ",") {
		if !strings.HasPrefix(l, "le=") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, ",")
}

// TestAdminStatszEmptyServer checks the no-traffic document: hit_ratio is
// omitted (not NaN, not 0) and the JSON still decodes.
func TestAdminStatszEmptyServer(t *testing.T) {
	srv, _ := startServer(t, Options{})
	admin := NewAdmin(srv)
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go admin.Serve(aln)
	t.Cleanup(func() { admin.Close() })

	body, _ := httpGet(t, "http://"+aln.Addr().String()+"/statsz")
	if strings.Contains(body, "NaN") {
		t.Fatalf("statsz leaks NaN:\n%s", body)
	}
	var doc Statsz
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.HitRatio != nil {
		t.Errorf("hit_ratio = %v on an idle server, want omitted", *doc.HitRatio)
	}
	if doc.Latencies["get"].Count != 0 {
		t.Errorf("latency count = %d on an idle server", doc.Latencies["get"].Count)
	}
}

// TestStatszFieldNames pins the /statsz fields others read by name — the
// benchmark's frozen list (benchmark/README.md), pama-stats -live, the CI
// python snippets — and the sections whose structs /statsz embeds from their
// own packages, with each field's JSON kind. "*" stands for any one key of
// an object, a number for an array index.
func TestStatszFieldNames(t *testing.T) {
	var typed Statsz // the last document, decoded the way pama-stats -live does
	statsz := func(srv *Server) any {
		t.Helper()
		rec := httptest.NewRecorder()
		NewAdmin(srv).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
		var doc any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		typed = Statsz{}
		if err := json.Unmarshal(rec.Body.Bytes(), &typed); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	summary := func(prefix string) map[string]string {
		return map[string]string{prefix + ".count": "number", prefix + ".mean_seconds": "number",
			prefix + ".p50_seconds": "number", prefix + ".p95_seconds": "number", prefix + ".p99_seconds": "number"}
	}
	check := func(doc any, groups ...map[string]string) {
		t.Helper()
		for _, g := range groups {
			for path, kind := range g {
				cur := doc
				for _, part := range strings.Split(path, ".") {
					switch v := cur.(type) {
					case map[string]any:
						if part == "*" {
							for k := range v {
								part = k
							}
						}
						cur = v[part]
					case []any:
						if i, err := strconv.Atoi(part); err == nil && i < len(v) {
							cur = v[i]
						} else {
							cur = nil
						}
					default:
						cur = nil
					}
				}
				got := "missing"
				switch cur.(type) {
				case float64:
					got = "number"
				case string:
					got = "string"
				case bool:
					got = "bool"
				case []any:
					got = "array"
				case map[string]any:
					got = "object"
				}
				if got != kind {
					t.Errorf("/statsz %s is %s, want %s", path, got, kind)
				}
			}
		}
	}

	// A read-through server under admission control.
	store := backend.New(penalty.Uniform(0.001), func(uint64) int { return 10 })
	srv, addr := startServer(t, Options{Backend: store, Overload: overload.New(overload.Config{MaxInflight: 8})})
	cl := dial(t, addr)
	cl.send(t, "set k 0 0 1\r\nx\r\nget k\r\nget fill\r\n")
	readUntil(t, cl, "END\r\nVALUE fill 0 10\r\n")
	readUntil(t, cl, "END\r\n")
	check(statsz(srv), map[string]string{
		"policy": "string", "items": "number", "slabs": "array", "hit_ratio": "number",
		"engine.Gets": "number", "engine.Hits": "number", "engine.Misses": "number", "engine.Sets": "number",
		"engine.Overwrites": "number", "engine.Evictions": "number", "engine.GhostHits": "number", "engine.SlabMigrations": "number",
		"engine.WindowRollovers": "number",
		"server.Batches":         "number", "server.BatchedCmds": "number", "server.ClientErrors": "number",
		"server.ServerErrors": "number", "server.IOErrors": "number", "server.PeerForwards": "number",
		"server.PeerErrors": "number", "server.HotHits": "number",
		"runtime.gc_cycles": "number", "runtime.gc_pause_seconds_total": "number", "runtime.heap_alloc_bytes": "number",
		"introspection.bytes_holes": "array", "introspection.slot_sizes": "array",
		"introspection.evicts_by_sub": "array", "introspection.evicted_penalty_by_sub": "array",
		"backend.fetches": "number", "backend.total_penalty_seconds": "number",
		"backend.injected_errors": "number", "backend.injected_spikes": "number",
		"overload.tier": "number", "overload.limit": "number", "overload.max_inflight": "number",
		"overload.inflight": "number", "overload.queued": "number", "overload.peak_inflight": "number",
		"overload.admitted": "number", "overload.queued_total": "number", "overload.shed_total": "number",
		"overload.shed_by_reason": "object", "overload.shed_by_sub": "array", "overload.shed_by_slo": "array",
		"overload.limit_increases": "number", "overload.limit_decreases": "number",
	}, summary("latencies.get"), summary("latencies.set"), summary("backend.fetch_latency"),
		summary("overload.sojourn"), summary("overload.service"))
	// A histogram decoded from its summary keeps the count and the mean.
	sent := store.FetchLatency()
	if got := typed.Backend.FetchLatency; sent.Count == 0 || got.Count != sent.Count ||
		math.Abs(got.Mean()-sent.Mean()) > 1e-9*sent.Mean() {
		t.Errorf("fetch_latency decodes to n=%d mean=%g, sent n=%d mean=%g", got.Count, got.Mean(), sent.Count, sent.Mean())
	}
	if got := typed.Overload.Service; got.Count == 0 || got.Mean() <= 0 {
		t.Errorf("overload.service decodes to n=%d mean=%g", got.Count, got.Mean())
	}

	// A cluster member with runtime membership.
	nodes := startChurnCluster(t, 2, membership.Config{ProbeInterval: -1})
	ncl := dial(t, nodes[0].addr)
	for i := 0; i < 8; i++ { // some of these forward to the peer
		ncl.send(t, fmt.Sprintf("set fwd%d 0 0 1\r\nx\r\n", i))
		ncl.line(t)
	}
	check(statsz(nodes[0].srv), map[string]string{
		"cluster.self": "string", "cluster.members": "array",
		"cluster.peers.*.requests": "number", "cluster.peers.*.errors": "number",
		"cluster.peers.*.retries": "number", "cluster.peers.*.dials": "number",
		"cluster.peers.*.fast_fails": "number", "cluster.peers.*.breaker_opens": "number",
		"cluster.peers.*.breaker_open": "bool",
		"membership.epoch":             "number", "membership.draining": "bool", "membership.members.0.addr": "string",
		"membership.members.0.state": "string",
		"membership.handoff.active":  "bool", "membership.handoff.keys_sent": "number",
		"membership.handoff.runs": "number", "membership.handoff.errors": "number",
	}, summary("cluster.peers.*.latency"), summary("membership.probe_latency"),
		summary("membership.handoff.duration_seconds"))

	// A two-tenant server.
	reg, err := tenant.NewRegistry([]tenant.Config{{Name: "gold", ReservedBytes: 2 << 20}, {Name: "bronze"}})
	if err != nil {
		t.Fatal(err)
	}
	g, members, err := tenant.NewGroup(reg, cache.Config{CacheBytes: 12 << 20, StoreValues: true},
		2, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	arb, err := tenant.NewArbiter(members)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetArbiter(arb)
	g.Set("gold/k", 100, 0.01, 0, []byte("v"))
	g.Get("gold/k", 0, 0, nil)
	arb.Step()
	check(statsz(New(g, Options{Tenants: reg})), map[string]string{
		"tenants.0.name": "string", "tenants.0.slo_class": "number", "tenants.0.weight": "number",
		"tenants.0.reserved_bytes": "number", "tenants.0.reserve_slabs": "number", "tenants.0.slabs": "number",
		"tenants.0.free_slabs": "number", "tenants.0.items": "number", "tenants.0.used_bytes": "number",
		"tenants.0.gets": "number", "tenants.0.hits": "number", "tenants.0.misses": "number",
		"tenants.0.evictions": "number", "tenants.0.slabs_in": "number", "tenants.0.slabs_out": "number",
		"tenants.0.incoming": "number", "tenants.0.outgoing": "number", "tenants.2.name": "string",
		"tenants.0.evicted_penalty_by_sub": "array", "arbiter.steps": "number", "arbiter.moves": "number",
		"arbiter.members": "array", "arbiter.matrix": "array",
	})
}
