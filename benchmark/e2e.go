package main

// The outside-in run: pama-server as a child process (two for
// cluster_forward), driven over loopback, measured from the client side and
// from what the operating system and the server's own stats report about the
// child. End-to-end metrics come from here and nowhere else.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// serverFlags is the complete list of flags the benchmark ever passes (with
// -addr, -admin-addr, -peers and -self added at spawn). Everything else
// stays at the product default, so a change that removes some other knob
// does not break the benchmark. -shards is pinned because its default is the
// host's core count.
func serverFlags(sp *spec) []string {
	f := []string{"-cache", strconv.Itoa(sp.cacheMiB), "-shards", "2"}
	if sp.readthrough {
		f = append(f, "-readthrough", "-penalty-scale", "0")
	}
	return f
}

// env is one set-up system under test: the children, warmed, and the
// connections that warmed them.
type env struct {
	nodes []*child
	lcs   []*loadConn
}

func (e *env) close() {
	closeLoad(e.lcs)
	for _, c := range e.nodes {
		c.stop(0)
	}
}

// setUp spawns the servers, preloads and warms them, and reports how long
// that took on a host at nominal speed: the set-up a user waits for before
// the cache is useful. Like the measured phase, the work alternates with
// bursts on the reference, and each stretch of it is corrected with the
// reference's speed in the burst before it.
func setUp(pl *placement, sp *spec, bin string, seed uint64, ref *reference) (*env, time.Duration, error) {
	t0 := time.Now()
	n := 1
	if sp.cluster {
		n = 2
	}
	nodes, err := spawnServers(pl, bin, n, serverFlags(sp)...)
	if err != nil {
		return nil, 0, err
	}
	e := &env{nodes: nodes}
	if e.lcs, err = dialLoad(sp, nodes[0].addr, seed); err != nil {
		e.close()
		return nil, 0, err
	}
	stretch := time.Since(t0) // the spawn counts with the first stretch of warm-up
	var took float64
	for done := false; !done; {
		rb, err := ref.burst(refBurst, time.Time{})
		if err != nil {
			e.close()
			return nil, 0, err
		}
		t1 := time.Now()
		if done, err = warm(e.lcs, t1.Add(sutBurst)); err != nil {
			err = fmt.Errorf("%w; server's last stderr:\n%s", err, nodes[0].stderr)
			e.close()
			return nil, 0, err
		}
		took += (stretch + time.Since(t1)).Seconds() * ref.speed(rb)
		stretch = 0
	}
	return e, time.Duration(took * float64(time.Second)), nil
}

// warm continues the set-up on every connection until the deadline (see
// warmUp) and reports whether all of it is complete.
func warm(lcs []*loadConn, deadline time.Time) (done bool, err error) {
	dones := make([]bool, len(lcs))
	err = each(lcs, func(i int, lc *loadConn) error {
		var err error
		if dones[i], err = lc.warmUp(deadline); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	return !slices.Contains(dones, false), err
}

// snapshot is what the children report at one instant.
type snapshot struct {
	stats  []map[string]float64 // per node: numeric fields of the `stats` command
	statsz []map[string]any     // per node: /statsz
	self   time.Duration        // the generator's own CPU
}

func takeSnapshot(nodes []*child) (*snapshot, error) {
	s := &snapshot{self: selfCPU()}
	for _, c := range nodes {
		st, err := readStats(c.addr)
		if err != nil {
			return nil, fmt.Errorf("stats of %s: %w", c.addr, err)
		}
		sz, err := readStatsz(c.admin)
		if err != nil {
			return nil, fmt.Errorf("/statsz of %s: %w", c.admin, err)
		}
		s.stats = append(s.stats, st)
		s.statsz = append(s.statsz, sz)
	}
	return s, nil
}

func readStats(addr string) (map[string]float64, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(c, "stats\r\n"); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	br := bufio.NewReader(c)
	for {
		l, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		l = strings.TrimRight(l, "\r\n")
		if l == "END" {
			return m, nil
		}
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == "STAT" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				m[f[1]] = v
			}
		}
	}
}

func readStatsz(admin string) (map[string]any, error) {
	cl := http.Client{Timeout: opTimeout}
	resp, err := cl.Get("http://" + admin + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// at walks a decoded JSON object; a field a later refactor removed reads 0.
func at(m map[string]any, path ...string) float64 {
	var v any = m
	for _, p := range path {
		o, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = o[p]
	}
	switch x := v.(type) {
	case float64:
		return x
	case []any: // an array of numbers reads as its sum
		s := 0.0
		for _, e := range x {
			if f, ok := e.(float64); ok {
				s += f
			}
		}
		return s
	}
	return 0
}

// delta is after−before of one counter, for one node or summed over all.
type delta struct{ a, b *snapshot }

func (d delta) stat(name string) float64 {
	s := 0.0
	for i := range d.b.stats {
		s += d.b.stats[i][name] - d.a.stats[i][name]
	}
	return s
}

func (d delta) z(node int, path ...string) float64 {
	return at(d.b.statsz[node], path...) - at(d.a.statsz[node], path...)
}

func (d delta) zAll(path ...string) float64 {
	s := 0.0
	for i := range d.b.statsz {
		s += d.z(i, path...)
	}
	return s
}

// latSum is count×mean of one of the server's latency histograms, so that a
// mean over the measured phase can be taken from two cumulative readings.
func latSum(z map[string]any, fam string) (count, sum float64) {
	count = at(z, "latencies", fam, "count")
	return count, count * at(z, "latencies", fam, "mean_seconds")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// boundary is what /proc reports at one boundary between one-second slices.
type boundary struct {
	steal, total uint64   // machine-wide jiffies: stolen by the hypervisor, and all
	node         []uint64 // utime+stime of each child
}

func readBoundary(nodes []*child) (boundary, error) {
	var b boundary
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return b, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return b, fmt.Errorf("/proc/stat: %w", err)
		}
		b.total += v
		if i == 8 {
			b.steal = v
		}
	}
	for _, c := range nodes {
		t, err := cpuTicks(c.pid())
		if err != nil {
			return b, err
		}
		b.node = append(b.node, t)
	}
	return b, nil
}

// quietShare is the steal a slice may always have and still count.
const quietShare = 0.01

// quietSlices marks the slices to measure on. The sandbox is a virtual
// machine whose hypervisor takes CPU time away in bursts (up to half of it for
// minutes while this benchmark was written); a slice during which it took
// more than the run's median share (or more than quietShare, if that is
// larger) says more about the neighbours than about the server, and is left
// out of every per-slice statistic. At least half of the slices always count.
func quietSlices(sl []sutSlice) (keep []bool, stolen float64) {
	share := make([]float64, len(sl))
	var steal, total uint64
	for i, x := range sl {
		share[i] = ratio(float64(x.steal), float64(x.total))
		steal += x.steal
		total += x.total
	}
	limit := max(quietShare, median(share))
	keep = make([]bool, len(share))
	for i, s := range share {
		keep[i] = s <= limit
	}
	return keep, ratio(float64(steal), float64(total))
}

// outside is the result of one outside-in run.
type outside struct {
	attempted, failed uint64
	samples, slices   int     // round trips and slices the statistics rest on
	dropped           int     // round trips beyond the recorders' capacity
	stolen            float64 // share of the machine's CPU time the hypervisor took during the phase
	broken            bool    // a connection failed: the run measured nothing
	// m holds every metric this run can compute: the end-to-end ones and
	// the per-layer counts read from the child.
	m map[string]float64
}

// ok reports whether every operation was answered, and answered right.
func (r *outside) ok() bool { return !r.broken && r.failed == 0 && r.attempted > 0 }

// setupRepeats is how many times a run sets the system up; setup_s is the
// median. One set-up alone is the noisiest number the benchmark has.
const setupRepeats = 3

// runOutside sets the workload up repeats times, measures on the last set-up
// for the given number of seconds, in bursts that alternate with bursts on the
// reference server (see ref.go), and tears everything down.
func runOutside(sp *spec, bin string, seed uint64, seconds, repeats int, probe func(*env) error) (*outside, error) {
	pl := place()
	defer pl.pinGenerator()()
	ref, err := startReference(&pl, sp, seed)
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	defer ref.close()

	var setups []float64
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		if e, d, err = setUp(&pl, sp, bin, seed, ref); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer e.close()

	nSlices := max(1, int(time.Duration(seconds)*time.Second/(time.Duration(sliceBursts)*(sutBurst+refBurst))))
	recs := make([]*recorder, len(e.lcs))
	ref.recs = make([]*recorder, len(ref.lcs))
	for i := range recs {
		recs[i] = newRecorder(nSlices*400_000, nSlices)
		ref.recs[i] = newRecorder(nSlices*400_000, nSlices)
	}
	att0, fail0, gets0 := tally(e.lcs)
	before, err := takeSnapshot(e.nodes)
	if err != nil {
		return nil, err
	}
	sl := make([]sutSlice, nSlices)
	var runErr error
bursts:
	for i := range sl {
		x := &sl[i]
		x.node = make([]uint64, len(e.nodes))
		for b := 0; b < sliceBursts; b++ {
			// The recorders cut by whole seconds since the start they are
			// given: slice i is second i of a clock that runs only during
			// the bursts (the reference's fill half of each of its seconds).
			rb, err := ref.burst(refBurst, time.Now().Add(-time.Duration(i)*time.Second-time.Duration(b)*refBurst))
			if err != nil {
				runErr = err
				break bursts
			}
			x.ref.add(rb)
			b0, err := readBoundary(e.nodes)
			if err != nil {
				return nil, err
			}
			a0, _, _ := tally(e.lcs)
			cpu0 := selfCPU()
			t0 := time.Now()
			clock := t0.Add(-time.Duration(i*sliceBursts+b) * sutBurst)
			runErr = each(e.lcs, func(c int, lc *loadConn) error {
				return lc.run(sp.depth, clock, t0.Add(sutBurst), recs[c], nil)
			})
			x.time += time.Since(t0)
			x.genCPU += selfCPU() - cpu0
			a1, _, _ := tally(e.lcs)
			x.ops += float64(a1 - a0)
			if runErr != nil {
				break bursts
			}
			b1, err := readBoundary(e.nodes)
			if err != nil {
				return nil, err
			}
			x.steal += b1.steal - b0.steal
			x.total += b1.total - b0.total
			for n := range x.node {
				x.node[n] += b1.node[n] - b0.node[n]
			}
		}
	}
	att1, fail1, gets1 := tally(e.lcs)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\nserver's last stderr:\n%s", sp.name, runErr, e.nodes[0].stderr)
		return &outside{attempted: att1 - att0, failed: fail1 - fail0, broken: true, m: map[string]float64{}}, nil
	}
	after, err := takeSnapshot(e.nodes)
	if err != nil {
		return nil, err
	}

	r := &outside{attempted: att1 - att0, failed: fail1 - fail0, m: map[string]float64{}}
	for _, rec := range recs {
		r.dropped += rec.dropped
	}
	ops := float64(r.attempted)
	gets := float64(gets1 - gets0)
	d := delta{before, after}
	m := r.m
	penaltyMS := ratio(d.z(0, "backend", "total_penalty_seconds")*1e3, gets)

	// Every timing of a slice is brought to the nominal host's speed with
	// what the reference did during that slice (its throughput; for the
	// median round trip, its own median); the metric is the median over the
	// slices that count. CPU time comes in whole ticks, so it is summed over
	// those slices, like the operations it is divided by, and corrected with
	// the reference server's own CPU time per operation.
	keep, stolen := quietSlices(sl)
	r.stolen = stolen
	var speeds, rawOps, perOps, perP50, perP99, perService []float64
	var keptOps float64
	var keptRef refBurstResult
	var sutTime, genCPU time.Duration
	nodeTicks := make([]uint64, len(e.nodes))
	for i, x := range sl {
		sutTime += x.time
		genCPU += x.genCPU
		if !keep[i] {
			continue
		}
		r.slices++
		keptOps += x.ops
		keptRef.add(x.ref)
		for n := range nodeTicks {
			nodeTicks[n] += x.node[n]
		}
		speed := ref.speed(x.ref)
		lat := sliceLatency(recs, i)
		r.samples += lat.samples
		speeds = append(speeds, speed)
		rawOps = append(rawOps, x.ops/x.time.Seconds())
		perOps = append(perOps, x.ops/x.time.Seconds()/speed)
		perP50 = append(perP50, lat.p50us*ref.rttSpeed(sliceLatency(ref.recs, i).p50us))
		perP99 = append(perP99, lat.p99us*speed)
		perService = append(perService, lat.meanMS*speed+penaltyMS)
	}
	cpuSpeed := ref.cpuSpeed(keptRef)
	cpuUS := func(t uint64) float64 { return float64(t) * 1e6 / clockTick * cpuSpeed }
	var ticks uint64
	var rss float64
	for i, c := range e.nodes {
		ticks += nodeTicks[i]
		v, err := rssPeakMiB(c.pid())
		if err != nil {
			return nil, err
		}
		rss += v
	}

	// End to end.
	m["ops_per_s"] = median(perOps)
	m["server_cpu_us_per_op"] = ratio(cpuUS(ticks), keptOps)
	m["rtt_p50_us"] = median(perP50)
	m["hit_ratio"] = ratio(d.stat("get_hits"), d.stat("cmd_get"))
	m["service_ms_per_get"] = median(perService)
	m["rss_peak_mib"] = rss
	m["setup_s"] = median(setups)

	// Per layer, as counted by the child. Server-level counters are node
	// A's (the node the clients talk to); engine-level ones sum all nodes.
	kops := ops / 1e3
	sets := d.zAll("engine", "Sets")
	m["server.mean_batch_depth"] = ratio(d.z(0, "server", "BatchedCmds"), d.z(0, "server", "Batches"))
	for _, fam := range []string{"get", "set"} {
		c0, s0 := latSum(before.statsz[0], fam)
		c1, s1 := latSum(after.statsz[0], fam)
		m["server.lat_"+fam+"_mean_us"] = ratio((s1-s0)*1e6, c1-c0)
	}
	m["server.errors"] = d.z(0, "server", "ClientErrors") + d.z(0, "server", "ServerErrors") + d.z(0, "server", "IOErrors")
	m["cache.hit_ratio"] = ratio(d.zAll("engine", "Hits"), d.zAll("engine", "Gets"))
	m["cache.evictions_per_kset"] = ratio(d.zAll("engine", "Evictions")*1e3, sets)
	m["cache.ghost_hit_share"] = ratio(d.zAll("engine", "GhostHits"), d.zAll("engine", "Misses"))
	holes, items := 0.0, 0.0
	for _, z := range after.statsz {
		holes += at(z, "introspection", "bytes_holes")
		items += at(z, "items")
	}
	m["cache.hole_share"] = ratio(holes, float64(len(e.nodes)*sp.cacheMiB<<20))
	m["cache.items_resident"] = items
	m["core.slab_migrations_per_kop"] = ratio(d.zAll("engine", "SlabMigrations"), kops)
	m["core.window_rollovers"] = d.zAll("engine", "WindowRollovers")
	m["accessbuf.records_per_drain"] = ratio(d.zAll("access_buf", "drained"), d.zAll("access_buf", "drains"))
	m["accessbuf.full_drain_share"] = ratio(d.zAll("access_buf", "full_drains"), d.zAll("access_buf", "drains"))
	m["accessbuf.lock_wait_us_per_kop"] = ratio(d.zAll("access_buf", "lock_wait_ns")/1e3, kops)
	m["accessbuf.stale_refs"] = d.zAll("access_buf", "stale_refs")
	m["backend.fetches_per_kget"] = ratio(d.z(0, "backend", "fetches")*1e3, gets)
	m["backend.penalty_ms_per_get"] = penaltyMS
	m["cluster.remote_share"] = ratio(d.z(0, "server", "PeerForwards")+d.z(0, "server", "HotHits"), ops)
	m["cluster.forward_share"] = ratio(d.z(0, "server", "PeerForwards"), ops)
	m["cluster.hot_hit_share"] = ratio(d.z(0, "server", "HotHits"), gets)
	m["cluster.peer_errors"] = d.z(0, "server", "PeerErrors")
	if len(e.nodes) > 1 {
		m["cluster.peer_cpu_us_per_op"] = ratio(cpuUS(nodeTicks[1]), keptOps)
	} else {
		m["cluster.peer_cpu_us_per_op"] = 0
	}
	m["loadgen.cpu_us_per_op"] = ratio(float64(genCPU.Microseconds()), ops)
	m["loadgen.ops_per_s_mean"] = ratio(ops, sutTime.Seconds())
	m["loadgen.rtt_p99_us"] = median(perP99)
	m["loadgen.ops_per_s_raw"] = median(rawOps)
	m["loadgen.host_speed"] = median(speeds)
	m["loadgen.host_cpu_speed"] = cpuSpeed

	if probe != nil {
		if err := probe(e); err != nil {
			return nil, err
		}
	}
	return r, nil
}
