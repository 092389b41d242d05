package server

// The observability surface is a contract: dashboards, CI greps, pama-stats
// and the benchmark read series, STAT and /statsz names by hand. These tests
// pin all three against golden files under testdata/, captured from two
// fixtures that between them switch every optional section on:
//
//	node     one member of a two-node cluster with runtime membership,
//	         read-through, serve-stale, admission control and the hot cache
//	tenants  a two-tenant group (two engines per tenant) under an arbiter
//
// Both are driven by a fixed single-connection script, so every counter that
// does not measure time is reproducible and is pinned with its value.
// Regenerate with `go test ./internal/server -run TestMetricsGolden -update`
// and read the diff: a renamed or vanished series is a breaking change.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/membership"
	"pamakv/internal/overload"
	"pamakv/internal/penalty"
	"pamakv/internal/tenant"
	"pamakv/internal/valuetable"
)

var updateGolden = flag.Bool("update", false, "rewrite the exposition golden files under testdata/")

// exposition is what one fixture showed on its three surfaces, unmasked.
type exposition struct {
	metrics string // GET /metrics
	stats   string // the in-band `stats` reply
	statsz  string // GET /statsz
}

// expositionGeometry gives every fixture engine 16 slabs per MiB, so a few
// thousand small stores reach eviction and slab migration.
var expositionGeometry = kv.Geometry{SlabSize: 1 << 16, Base: 64, NumClasses: 8}

// capture reads the three surfaces of srv; cl is a connection to it.
func capture(t *testing.T, srv *Server, cl *client) exposition {
	t.Helper()
	h := NewAdmin(srv).Handler()
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	cl.send(t, "stats\r\n")
	stats := readUntil(t, cl, "END\r\n")
	// A batch's latency is observed once its reply is flushed, so the reply
	// can arrive first: wait until every command the server batched is in a
	// latency histogram before reading the surfaces that count them.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var observed uint64
		for _, h := range srv.Latencies() {
			observed += h.Count
		}
		batched := srv.Stats().BatchedCmds
		if observed == batched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("latency histograms hold %d of %d batched commands", observed, batched)
		}
	}
	return exposition{stats: stats, metrics: get("/metrics"), statsz: get("/statsz")}
}

// storeBurst sends n stores of size-byte values to keys[0:n] in one write and
// checks every reply.
func storeBurst(t *testing.T, cl *client, keys []string, size int) {
	t.Helper()
	val := strings.Repeat("v", size)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "set %s 0 0 %d\r\n%s\r\n", k, size, val)
	}
	cl.send(t, b.String()+"version\r\n")
	if got := readUntil(t, cl, versionLine); got != strings.Repeat("STORED\r\n", len(keys)) {
		t.Fatalf("burst of %d stores: %d bytes of replies, first %.60q", len(keys), len(got), got)
	}
}

// nodeExposition runs the cluster-member fixture.
func nodeExposition(t *testing.T) exposition {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// Views list members in address order; the node under test goes first so
	// the masked member rows keep their order.
	if addrs[1] < addrs[0] {
		lns[0], lns[1], addrs[0], addrs[1] = lns[1], lns[0], addrs[1], addrs[0]
	}
	startChurnNode(t, lns[1], addrs, membership.Config{ProbeInterval: -1})

	// Four slots, no queue, no adaptation: with the slots held, every
	// request is shed at once for the same reason.
	ctrl := overload.New(overload.Config{MaxInflight: 4, MinLimit: 4, InitialLimit: 4, QueueLimit: -1,
		AdjustEvery: time.Hour, TierHold: time.Hour})
	p, err := cluster.New(cluster.Config{Self: addrs[0], Members: addrs, Tier: ctrl.Tier})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cache.New(cache.Config{
		Geometry: expositionGeometry, CacheBytes: 1 << 20, StoreValues: true, Stale: valuetable.New(1<<20, 0),
		WindowLen: 1000,
	}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := membership.New(membership.Config{Self: addrs[0], Peers: p, Source: eng, Tier: ctrl.Tier, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Penalty grows with size alone (64 B: 0.4 ms, 1.5 KiB: 9 ms), so which
	// keys the ring hands this node does not change a subclass.
	store := backend.New(penalty.Model{Base: 0.0004, Slope: 1, Min: 0.0001, Max: penalty.Cap},
		func(uint64) int { return 200 })
	srv := New(eng, Options{Backend: store, Cluster: p, Membership: mgr, Overload: ctrl})
	go srv.Serve(lns[0])
	mgr.Start()
	t.Cleanup(func() { mgr.Stop(); srv.Shutdown(); p.Close() })

	// Keys by owner: the ring is built from this run's ports, so the names
	// differ between runs and the counts of local and remote traffic do not.
	var local, remote []string
	for i := 0; len(local) < 1410 || len(remote) < 12; i++ {
		k := fmt.Sprintf("k%06d", i) // one width: an item's size counts its key
		if p.Owner(k) == p.Self() {
			local = append(local, k)
		} else {
			remote = append(remote, k)
		}
	}
	local, spare, remote := local[:1400], local[1400:1410], remote[:12]
	cl := dial(t, addrs[0])

	// Fill past capacity in one class, then store into two others: evictions,
	// ghosts, slab migrations and window rollovers.
	storeBurst(t, cl, local[:600], 1500)
	storeBurst(t, cl, local[600:1200], 300)
	storeBurst(t, cl, local[1200:1300], 5000)
	storeBurst(t, cl, local[1300:1400], 40)
	var cmds []string
	for _, k := range local[1180:1200] { // hits
		cmds = append(cmds, "get "+k+"\r\n")
	}
	for _, k := range local[180:230] { // around the eviction frontier: ghost hits, filled from the back end
		cmds = append(cmds, "get "+k+"\r\n")
	}
	hot := local[1399]
	cmds = append(cmds,
		"get "+spare[0]+" "+spare[1]+"\r\n", // never stored: plain misses, filled
		"gets "+hot+"\r\n",
		"append "+hot+" 0 0 3\r\nabc\r\n",
		"prepend "+hot+" 0 0 3\r\nabc\r\n",
		"add "+hot+" 0 0 1\r\nx\r\n",
		"replace "+hot+" 0 0 1\r\n7\r\n",
		"incr "+hot+" 5\r\n",
		"decr "+hot+" 2\r\n",
		"touch "+hot+" 0\r\n",
		"cas "+hot+" 0 0 1 1\r\nx\r\n",
		"delete "+hot+"\r\n",
		"delete "+hot+"\r\n",
		"bogus\r\n",
		"set "+spare[3]+" 0 0 20000\r\n"+strings.Repeat("v", 20000)+"\r\n", // no class holds it
	)
	for _, k := range remote { // the set is forwarded and leaves a hot copy, which both reads hit; the gets is forwarded
		cmds = append(cmds, setCmd(k, "remote-value"), "get "+k+"\r\n", "get "+k+"\r\n", "gets "+k+"\r\n")
	}
	answerEach(t, cl, cmds)

	// An expired key read while the back end is down is served stale.
	store.SetFaults(&backend.Faults{ErrRate: 1})
	if got := answerEach(t, cl, []string{"set " + spare[2] + " 0 -1 1\r\nx\r\n", "get " + spare[2] + "\r\n"}); got != "STORED\r\nVALUE "+spare[2]+" 0 1\r\nx\r\nEND\r\n" {
		t.Fatalf("stale serve answered %q", got)
	}
	store.SetFaults(nil)

	// Hold every admission slot and send reads: all shed, none queued.
	var release []func(time.Duration)
	for i := 0; i < 4; i++ {
		ok, _, rel := srv.Overload().AcquireSLO(overload.OpRead, 4, 0)
		if !ok {
			t.Fatal("could not take an admission slot")
		}
		release = append(release, rel)
	}
	answerEach(t, cl, []string{"get " + local[1190] + "\r\n", "get " + local[1191] + "\r\n", "set " + spare[4] + " 0 0 1\r\nx\r\n"})
	for _, rel := range release {
		rel(time.Millisecond)
	}
	return capture(t, srv, cl)
}

// tenantsExposition runs the two-tenant fixture.
func tenantsExposition(t *testing.T) exposition {
	t.Helper()
	reg, err := tenant.NewRegistry([]tenant.Config{
		{Name: "gold", ReservedBytes: 256 << 10, Weight: 3}, {Name: "bronze", SLOClass: 2}})
	if err != nil {
		t.Fatal(err)
	}
	g, members, err := tenant.NewGroup(reg, cache.Config{
		Geometry: expositionGeometry, CacheBytes: 3 << 20, StoreValues: true, WindowLen: 1000,
	}, 2, func() cache.Policy { return core.New(core.DefaultConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	arb, err := tenant.NewArbiter(members)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetArbiter(arb)
	srv := New(g, Options{Tenants: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	cl := dial(t, ln.Addr().String())

	keys := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%sk%d", prefix, i)
		}
		return out
	}
	// gold outgrows its share and re-reads what it lost; bronze and the
	// default tenant stay small, so the arbiter has a donor and a receiver.
	gold := keys("gold/", 1500)
	storeBurst(t, cl, gold, 1500)
	storeBurst(t, cl, keys("bronze/", 40), 300)
	storeBurst(t, cl, keys("", 40), 100)
	var cmds []string
	for _, k := range gold[400:600] { // around the eviction frontier: ghost hits give gold an incoming value
		cmds = append(cmds, "get "+k+"\r\n")
	}
	for _, k := range gold[1480:] {
		cmds = append(cmds, "get "+k+"\r\n")
	}
	cmds = append(cmds, "get bronze/k1\r\n", "get bronze/absent\r\n", "get k1\r\n", "delete k2\r\n")
	answerEach(t, cl, cmds)
	for i := 0; i < 6; i++ {
		arb.Step()
	}
	return capture(t, srv, cl)
}

var (
	loopbackPort = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	bucketEdge   = regexp.MustCompile(`,?le="[^"]*"`)
	sampleLine   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
)

// volatileValue reports whether a sample measures time, the Go runtime or
// the process, and so is pinned by name and labels only.
func volatileValue(name string) bool {
	return strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") ||
		strings.HasPrefix(name, "pamakv_go_") || strings.HasPrefix(name, "pamakv_process_")
}

// maskMetrics reduces a /metrics body to what must not change: every HELP
// and TYPE line and every sample, ports and volatile values masked. Families
// are sorted by name, and a histogram family's series by their labels — the
// exposition format gives neither order a meaning, and TestExpositionFormat
// checks contiguity on the unsorted body.
func maskMetrics(body string) string {
	var fams [][]string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		line = loopbackPort.ReplaceAllString(line, "127.0.0.1:PORT")
		if m := sampleLine.FindStringSubmatch(line); m != nil && volatileValue(m[1]) {
			line = m[1] + m[2] + " *"
		}
		if strings.HasPrefix(line, "# HELP ") || len(fams) == 0 {
			fams = append(fams, nil)
		}
		fams[len(fams)-1] = append(fams[len(fams)-1], line)
	}
	sort.SliceStable(fams, func(i, j int) bool {
		return strings.Fields(fams[i][0])[2] < strings.Fields(fams[j][0])[2]
	})
	var b strings.Builder
	for _, fam := range fams {
		if len(fam) > 2 && strings.HasSuffix(fam[1], " histogram") {
			series := func(line string) string { // the labels but le
				return bucketEdge.ReplaceAllString(sampleLine.FindStringSubmatch(line)[2], "")
			}
			samples := fam[2:]
			sort.SliceStable(samples, func(i, j int) bool { return series(samples[i]) < series(samples[j]) })
		}
		b.WriteString(strings.Join(fam, "\n") + "\n")
	}
	return b.String()
}

// statNames lists the names of a `stats` reply, sorted.
func statNames(t *testing.T, reply string) string {
	t.Helper()
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(reply, "\r\n"), "\r\n") {
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 || f[0] != "STAT" {
			t.Fatalf("bad stats line %q", line)
		}
		names = append(names, f[1])
	}
	sort.Strings(names)
	return strings.Join(names, "\n") + "\n"
}

// keyTree flattens a /statsz document to one sorted line per distinct path
// with the JSON kind found there; array elements share the path "[]".
func keyTree(t *testing.T, doc string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(doc), &v); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		kind := "null"
		switch x := v.(type) {
		case map[string]any:
			kind = "object"
			for k, e := range x {
				walk(path+"."+loopbackPort.ReplaceAllString(k, "127.0.0.1:PORT"), e)
			}
		case []any:
			kind = "array"
			for _, e := range x {
				walk(path+"[]", e)
			}
		case float64:
			kind = "number"
		case string:
			kind = "string"
		case bool:
			kind = "bool"
		}
		seen[strings.TrimPrefix(path, ".")+" "+kind] = true
	}
	walk("", v)
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// golden compares got with testdata/<name>, or rewrites the file under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	in := func(set []string) map[string]bool {
		m := make(map[string]bool, len(set))
		for _, l := range set {
			m[l] = true
		}
		return m
	}
	haveWant, haveGot := in(wantLines), in(gotLines)
	for _, l := range wantLines {
		if !haveGot[l] {
			t.Errorf("%s: lost    %s", name, l)
		}
	}
	for _, l := range gotLines {
		if !haveWant[l] {
			t.Errorf("%s: gained  %s", name, l)
		}
	}
	t.Errorf("%s differs from the golden file (rerun with -update if the change is meant)", name)
}

var expositionFixtures = []struct {
	name string
	run  func(*testing.T) exposition
}{{"node", nodeExposition}, {"tenants", tenantsExposition}}

// TestMetricsGolden pins every series of /metrics (HELP, TYPE, labels and
// reproducible values), every in-band STAT name and the /statsz key tree.
func TestMetricsGolden(t *testing.T) {
	for _, fx := range expositionFixtures {
		t.Run(fx.name, func(t *testing.T) {
			e := fx.run(t)
			golden(t, fx.name+".metrics.golden", maskMetrics(e.metrics))
			golden(t, fx.name+".stats.golden", statNames(t, e.stats))
			golden(t, fx.name+".statsz.golden", keyTree(t, e.statsz))
		})
	}
}

// TestExpositionFormat checks what a Prometheus scraper needs of /metrics:
// every line well formed, one HELP and one TYPE per family, a family's
// samples contiguous under its header, and the naming rule a reader relies on
// to tell rates from levels — a counter ends in _total and nothing else does
// (pamakv_holes_bytes_total, a sum over classes of a gauge, keeps the name it
// has always had).
func TestExpositionFormat(t *testing.T) {
	for _, fx := range expositionFixtures {
		t.Run(fx.name, func(t *testing.T) {
			typ := map[string]string{}
			fam := ""
			lines := strings.Split(strings.TrimRight(fx.run(t).metrics, "\n"), "\n")
			for i, line := range lines {
				if name, ok := strings.CutPrefix(line, "# HELP "); ok {
					fam, _, _ = strings.Cut(name, " ")
					if _, dup := typ[fam]; dup {
						t.Errorf("%s: second HELP (its samples are not contiguous)", fam)
					}
					typ[fam] = ""
					if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+fam+" ") {
						t.Errorf("%s: HELP not followed by its TYPE", fam)
					}
					continue
				}
				if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
					name, kind, _ := strings.Cut(rest, " ")
					if name != fam || typ[fam] != "" {
						t.Errorf("stray TYPE line %q", line)
					}
					typ[name] = kind
					continue
				}
				m := sampleLine.FindStringSubmatch(line)
				if m == nil {
					t.Errorf("malformed line %q", line)
					continue
				}
				name := m[1]
				if typ[fam] == "histogram" {
					for _, suffix := range []string{"_bucket", "_sum", "_count"} {
						name = strings.TrimSuffix(name, suffix)
					}
				}
				if name != fam {
					t.Errorf("sample %q under the header of %s", line, fam)
				}
			}
			for name, kind := range typ {
				total := strings.HasSuffix(name, "_total") && name != "pamakv_holes_bytes_total"
				if total != (kind == "counter") {
					t.Errorf("%s is typed %s", name, kind)
				}
			}
		})
	}
}
