// Command pama-loadgen drives a running pama-server (or any Memcached-
// ASCII-protocol server) over TCP with a synthetic workload and reports
// client-observed throughput, hit ratio, and latency percentiles — the
// memtier/mc-crusher role in this repository's toolbox.
//
// Each connection runs an independent stream of the chosen workload
// (seeded by connection id, so runs are reproducible), issuing GETs and
// SETs in the workload's own proportions; GET misses are followed by a
// client refill SET, the same pattern the paper's penalty estimation
// assumes.
//
// Usage:
//
//	pama-server -addr :11211 -policy pama &
//	pama-loadgen -addr localhost:11211 -workload etc -n 200000 -conns 4
//
// Against a cluster, pass every member: the load generator shards keys
// client-side with the same consistent-hash ring the servers use, so each
// request lands directly on its owner (no forwarding hop):
//
//	pama-loadgen -addr :11211,:11311,:11411 -workload etc -n 200000
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pamakv/internal/client"
	"pamakv/internal/cluster"
	"pamakv/internal/kv"
	"pamakv/internal/obs"
	"pamakv/internal/proto"
	"pamakv/internal/trace"
	"pamakv/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "server address, or a comma-separated member list for client-side ring sharding")
	wl := flag.String("workload", "etc", "workload model: etc, app, usr, sys, var")
	n := flag.Uint64("n", 100_000, "total requests across all connections")
	conns := flag.Int("conns", 4, "concurrent connections")
	keys := flag.Uint64("keys", 65536, "hot keyspace size")
	valueBytes := flag.Int("value-bytes", 0, "fixed value size (0 = workload sizes, capped at 64 KiB)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the sharding ring (match the servers')")
	tenants := flag.String("tenants", "", `tag keys with tenant prefixes: "name" or weighted "A:3,B:1" (requests split by weight; pair with pama-server -tenants)`)
	storm := flag.Bool("storm", false, "storm mode: pipelined GET bursts, no miss refills, shed replies counted separately — drive N× capacity with high -conns")
	stormBurst := flag.Int("storm-burst", 16, "pipelined GETs per flush in storm mode")
	flag.Parse()
	sched, err := tenantSchedule(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pama-loadgen:", err)
		os.Exit(1)
	}
	if err := run(os.Stdout, *addr, *wl, *n, *conns, *keys, *valueBytes, *vnodes, *storm, *stormBurst, sched); err != nil {
		fmt.Fprintln(os.Stderr, "pama-loadgen:", err)
		os.Exit(1)
	}
}

// connStats aggregates one connection's observations.
type connStats struct {
	gets, hits, sets uint64
	sheds            uint64
	errs             uint64
	lat              *obs.Hist // shared by every connection
	// tenGets/tenHits break GETs down by tenant tag (tenant mode only).
	tenGets, tenHits map[string]uint64
}

// tenantSchedule expands "A:3,B:1" into a round-robin tag schedule whose
// composition matches the weights ("" means untagged single-tenant mode).
func tenantSchedule(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	var sched []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w < 1 || w > 1000 {
				return nil, fmt.Errorf("tenant %q: weight must be an integer in [1,1000]", part)
			}
			weight = w
		}
		if name == "" || strings.ContainsRune(name, '/') {
			return nil, fmt.Errorf("bad tenant name %q", name)
		}
		for i := 0; i < weight; i++ {
			sched = append(sched, name)
		}
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("empty -tenants spec")
	}
	return sched, nil
}

func run(w io.Writer, addr, wl string, n uint64, conns int, keys uint64, valueBytes, vnodes int, storm bool, stormBurst int, tenants []string) error {
	if conns < 1 {
		conns = 1
	}
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("no server address")
	}
	cfg, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	cfg.Keys = keys
	perConn := n / uint64(conns)
	if perConn == 0 {
		perConn = 1
	}

	lat := obs.NewHist(1e-6, 6)
	stats := make([]*connStats, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Seed = cfg.Seed + uint64(i)*1e9
			stats[i] = &connStats{lat: lat}
			errs[i] = drive(addrs, vnodes, c, perConn, valueBytes, storm, stormBurst, tenants, stats[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := &connStats{}
	total.tenGets, total.tenHits = map[string]uint64{}, map[string]uint64{}
	for i, s := range stats {
		if errs[i] != nil {
			return fmt.Errorf("connection %d: %w", i, errs[i])
		}
		total.gets += s.gets
		total.hits += s.hits
		total.sets += s.sets
		total.sheds += s.sheds
		total.errs += s.errs
		for t, g := range s.tenGets {
			total.tenGets[t] += g
			total.tenHits[t] += s.tenHits[t]
		}
	}
	ops := total.gets + total.sets
	fmt.Fprintf(w, "loadgen: %d ops over %d conns in %s (%.0f ops/s)\n",
		ops, conns, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds())
	hitRatio := 0.0
	if total.gets > 0 {
		hitRatio = float64(total.hits) / float64(total.gets)
	}
	fmt.Fprintf(w, "gets=%d hit-ratio=%.4f sets=%d protocol-errors=%d\n",
		total.gets, hitRatio, total.sets, total.errs)
	if storm || total.sheds > 0 {
		shedRatio := 0.0
		if ops > 0 {
			shedRatio = float64(total.sheds) / float64(ops)
		}
		fmt.Fprintf(w, "sheds=%d shed-ratio=%.4f\n", total.sheds, shedRatio)
	}
	if len(total.tenGets) > 0 {
		names := make([]string, 0, len(total.tenGets))
		for t := range total.tenGets {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			hr := 0.0
			if g := total.tenGets[t]; g > 0 {
				hr = float64(total.tenHits[t]) / float64(g)
			}
			fmt.Fprintf(w, "tenant %s: gets=%d hit-ratio=%.4f\n", t, total.tenGets[t], hr)
		}
	}
	ls := lat.Snapshot()
	fmt.Fprintf(w, "client latency: p50<=%.1fus p99<=%.1fus mean=%.1fus\n",
		1e6*ls.Quantile(0.50), 1e6*ls.Quantile(0.99), 1e6*ls.Mean())
	return nil
}

// answered reports whether err is something the server said — success, a
// miss, a shed, any other reply — rather than a transport failure, which
// ends the driver's run.
func answered(err error) bool {
	var re *client.ReplyError
	return err == nil || errors.Is(err, client.ErrCacheMiss) || errors.Is(err, client.ErrServerBusy) ||
		errors.As(err, &re)
}

// drive runs one driver's request stream over its own client (one pooled
// connection per member, so -conns is the connection count per server). With
// several addresses each key's request goes to its owning member; otherwise
// everything goes to addrs[0]. In storm mode every request becomes a GET,
// issued in pipelined bursts with no miss refills — raw read pressure, the
// way a stampede actually arrives.
func drive(addrs []string, vnodes int, cfg workload.Config, n uint64, valueBytes int, storm bool, stormBurst int, tenants []string, st *connStats) error {
	gen, err := workload.New(cfg)
	if err != nil {
		return err
	}
	c, err := client.New(client.Config{
		Addrs:    addrs,
		VNodes:   vnodes,
		PoolSize: 1,
		Retries:  -1, // a load generator reports failures, it does not paper over them
	})
	if err != nil {
		return err
	}
	defer c.Close()

	valueOf := func(size int) []byte {
		if valueBytes > 0 {
			size = valueBytes
		}
		if size > 64<<10 {
			size = 64 << 10
		}
		if size < 1 {
			size = 1
		}
		return bytes.Repeat([]byte("v"), size)
	}
	// In tenant mode each request carries a tenant prefix drawn round-robin
	// from the weighted schedule; each tenant therefore sees the same key
	// distribution over its own namespace, at its weighted share of the
	// request rate.
	st.tenGets, st.tenHits = map[string]uint64{}, map[string]uint64{}
	var reqNo uint64
	curTag := ""
	keyOf := func(id uint64) string {
		if len(tenants) == 0 {
			curTag = ""
			return fmt.Sprintf("lg:%d", id)
		}
		curTag = tenants[reqNo%uint64(len(tenants))]
		reqNo++
		return fmt.Sprintf("%s/lg:%d", curTag, id)
	}

	doSet := func(key string, val []byte) error {
		start := time.Now()
		err := c.Set(key, 0, 0, val)
		if !answered(err) {
			return err
		}
		st.lat.Observe(time.Since(start).Seconds())
		st.sets++
		var re *client.ReplyError
		switch {
		case errors.Is(err, client.ErrServerBusy):
			st.sheds++
		case errors.As(err, &re) && re.Status != proto.StatusServerError:
			// A non-shed SERVER_ERROR (admission refusal, allocation
			// failure) is an overload outcome, not a protocol error.
			st.errs++
		}
		return nil
	}
	// countGet books one answered GET: a hit, a miss, a shed, or — any other
	// reply — a protocol error.
	countGet := func(err error) (hit bool) {
		st.gets++
		switch {
		case err == nil:
			st.hits++
			return true
		case errors.Is(err, client.ErrServerBusy):
			st.sheds++
		case !errors.Is(err, client.ErrCacheMiss):
			st.errs++
		}
		return false
	}
	doGet := func(key string, size int) error {
		start := time.Now()
		_, err := c.Get(key)
		if !answered(err) {
			return err
		}
		st.lat.Observe(time.Since(start).Seconds())
		hit := countGet(err)
		if curTag != "" {
			st.tenGets[curTag]++
			if hit {
				st.tenHits[curTag]++
			}
		}
		if errors.Is(err, client.ErrCacheMiss) {
			// Client refill, as a real cache client would.
			return doSet(key, valueOf(size))
		}
		return nil
	}

	stream := &trace.Limit{S: gen, N: n}
	if storm {
		// Storm mode never refills — a stampede does not politely
		// repopulate the cache it is crushing. A burst is one pipelined
		// batch, split by owner on a cluster; the recorded latency is the
		// whole burst's round trip.
		if stormBurst < 1 {
			stormBurst = 1
		}
		p := c.Pipeline()
		doBurst := func() error {
			start := time.Now()
			results, err := p.Exec()
			if err != nil {
				return err
			}
			for _, r := range results {
				if !answered(r.Err) {
					return r.Err
				}
				countGet(r.Err)
			}
			st.lat.Observe(time.Since(start).Seconds())
			return nil
		}
		for {
			req, err := stream.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			p.Get(keyOf(req.Key))
			if p.Len() >= stormBurst {
				if err := doBurst(); err != nil {
					return err
				}
			}
		}
		if p.Len() > 0 {
			return doBurst()
		}
		return nil
	}
	for {
		req, err := stream.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		key := keyOf(req.Key)
		switch req.Op {
		case kv.Get:
			err = doGet(key, int(req.Size))
		case kv.Set:
			err = doSet(key, valueOf(int(req.Size)))
		case kv.Delete:
			if err = c.Delete(key); answered(err) {
				err = nil
			}
		}
		if err != nil {
			return err
		}
	}
}
