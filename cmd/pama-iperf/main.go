// Command pama-iperf is the repository's load generator: an iperf-style
// cross-backend cache benchmark that drives pamakv, memcached, or redis
// through one Benchmarker interface and emits one CSV row per (operation,
// value size, keyspace) combination, so a single spreadsheet can hold pamakv
// and its competitors side by side.
//
//	pama-iperf -protocol pamakv   -addrs 127.0.0.1:11211 -value-bytes 100,1024
//	pama-iperf -protocol memc-txt -addrs 127.0.0.1:11212 -value-bytes 100,1024 -no-header
//	pama-iperf -protocol redis    -addrs 127.0.0.1:6379  -value-bytes 100,1024 -no-header
//
// The set, get and mixed phases draw uniform keys and store -value-bytes
// values. The workload phase replays a -workload model instead — GETs, SETs
// and DELETEs in the model's proportions and value sizes, each GET miss
// refilled with a SET as the paper's cache clients do — or, with -pipeline
// > 1, storms: every request a GET, in pipelined bursts, no refills. Given
// several -addrs the pamakv protocol shards keys on the servers' own ring,
// so a cluster forwards nothing; -tenants prefixes keys with weighted tenant
// names and adds a row per tenant.
//
// Every protocol answers the same schema:
//
//	label,op,clients,value_bytes,keyspace,pipeline,ops_per_sec,p50_us,p99_us,p999_us,hit_ratio,errors,sheds
//
// Latency quantiles are per round trip: with -pipeline > 1 a round trip
// carries that many GETs, which is exactly how the competing servers are
// benchmarked too. Every answered operation is counted and timed — a shed
// (SERVER_ERROR busy (shed)) is an answer, and also the sheds column. The
// operations that failed are the errors column, and any of them makes the
// exit status 1.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pamakv/internal/client"
	"pamakv/internal/kv"
	"pamakv/internal/obs"
	"pamakv/internal/trace"
	"pamakv/internal/workload"
)

// csvHeader is the one schema every protocol emits.
const csvHeader = "label,op,clients,value_bytes,keyspace,pipeline,ops_per_sec,p50_us,p99_us,p999_us,hit_ratio,errors,sheds"

// maxModelValue caps the workload phase's value sizes.
const maxModelValue = 64 << 10

// Benchmarker is the one surface a backend driver must offer. Each worker
// goroutine owns one instance (its own connection), mirroring how the
// classic memtier/getset harnesses drive every backend. Every protocol
// reports in internal/client's terms: nil is success (a GET hit),
// client.ErrCacheMiss a GET miss or a DELETE of an absent key,
// client.ErrServerBusy a shed, and any other error a failed operation.
type Benchmarker interface {
	Set(key string, value []byte) error
	Get(key string) error
	Delete(key string) error
	// GetBatch pipelines the keys on one round trip and sets errs[i] to the
	// reply for keys[i]. It reads every reply of the batch before it
	// returns, so no reply is left behind for the next batch; after a
	// broken connection the break is the error of every unread reply.
	GetBatch(keys []string, errs []error)
	Close() error
}

// factory builds one Benchmarker per worker.
type factory func() (Benchmarker, error)

// config is one full run: sweeps expand into individual benchCases.
type config struct {
	protocol string
	label    string
	addrs    []string

	ops        []string // phases, in order: set, get, mixed, workload
	clients    int
	requests   int
	valueSizes []int
	keyspaces  []int
	pipeline   int
	getRatio   float64
	noHeader   bool
	workload   string
	// tenants names the -tenants tenants in spec order; sched is their
	// weighted round robin, as indices into tenants. Both nil: untagged keys.
	tenants []string
	sched   []int
}

func main() {
	var cfg config
	var addrs, ops, sizes, keyspaces, tenants string
	flag.StringVar(&cfg.protocol, "protocol", "pamakv", "backend protocol: pamakv, memc-txt, or redis")
	flag.StringVar(&cfg.label, "label", "", "CSV label column (defaults to the protocol)")
	flag.StringVar(&addrs, "addrs", "127.0.0.1:11211", "server address, or comma-separated members (pamakv protocol shards client-side)")
	flag.StringVar(&ops, "ops", "set,get", "benchmark phases, comma-separated: set, get, mixed, workload")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent client connections")
	flag.IntVar(&cfg.requests, "requests", 100_000, "requests per phase (split across clients)")
	flag.StringVar(&sizes, "value-bytes", "100", "value sizes to sweep, comma-separated (the workload phase uses the model's)")
	flag.StringVar(&keyspaces, "keys", "10000", "keyspace sizes to sweep, comma-separated")
	flag.IntVar(&cfg.pipeline, "pipeline", 1, "GETs per pipelined round trip (1 = no pipelining; > 1 makes the workload phase a GET storm)")
	flag.Float64Var(&cfg.getRatio, "get-ratio", 0.9, "GET fraction of the mixed phase")
	flag.BoolVar(&cfg.noHeader, "no-header", false, "suppress the CSV header (appending to an existing file)")
	flag.StringVar(&cfg.workload, "workload", "etc", "model the workload phase replays: etc, app, usr, sys, var")
	flag.StringVar(&tenants, "tenants", "", `tag keys with tenant prefixes: "name" or weighted "A:3,B:1" (pair with pama-server -tenants)`)
	flag.Parse()

	cfg.addrs = strings.Split(addrs, ",")
	cfg.ops = strings.Split(ops, ",")
	var err error
	if cfg.valueSizes, err = parseIntList(sizes); err != nil {
		fmt.Fprintf(os.Stderr, "pama-iperf: -value-bytes: %v\n", err)
		os.Exit(2)
	}
	if cfg.keyspaces, err = parseIntList(keyspaces); err != nil {
		fmt.Fprintf(os.Stderr, "pama-iperf: -keys: %v\n", err)
		os.Exit(2)
	}
	if cfg.tenants, cfg.sched, err = tenantSchedule(tenants); err != nil {
		fmt.Fprintf(os.Stderr, "pama-iperf: -tenants: %v\n", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pama-iperf: %v\n", err)
		os.Exit(1)
	}
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// tenantSchedule parses a -tenants spec ("A:3,B:1", or a bare "A") into the
// tenant names, in spec order, and a round robin of indices into them whose
// composition matches the weights. An empty spec is untagged traffic.
func tenantSchedule(spec string) (names []string, sched []int, err error) {
	if spec == "" {
		return nil, nil, nil
	}
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
				return nil, nil, fmt.Errorf("tenant %q: weight must be an integer in [1,1000]", part)
			}
			weight = w
		}
		if name == "" || strings.ContainsRune(name, '/') || slices.Contains(names, name) {
			return nil, nil, fmt.Errorf("bad or repeated tenant name %q", name)
		}
		for i := 0; i < weight; i++ {
			sched = append(sched, len(names))
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("empty -tenants spec")
	}
	return names, sched, nil
}

// run executes every (value size, keyspace, op) combination and writes the
// CSV to w; after the last row it reports failed operations as an error.
// Factored from main for the tests.
func run(w io.Writer, cfg config) error {
	if cfg.label == "" {
		cfg.label = cfg.protocol
	}
	if cfg.clients <= 0 || cfg.requests <= 0 || cfg.pipeline <= 0 {
		return fmt.Errorf("clients, requests, and pipeline must be positive")
	}
	model, err := workload.ByName(cfg.workload)
	if err != nil {
		return err
	}
	mk, err := driverFactory(cfg)
	if err != nil {
		return err
	}
	if !cfg.noHeader {
		if _, err := fmt.Fprintln(w, csvHeader); err != nil {
			return err
		}
	}
	var failed uint64
	for vi, vs := range cfg.valueSizes {
		for _, ks := range cfg.keyspaces {
			for _, op := range cfg.ops {
				if op == "workload" && vi > 0 {
					continue // the model sizes its own values: one row per keyspace
				}
				rows, n, err := runCase(cfg, mk, model, op, vs, ks)
				if err != nil {
					return fmt.Errorf("%s/%s vs=%d ks=%d: %w", cfg.protocol, op, vs, ks, err)
				}
				if _, err := fmt.Fprint(w, rows); err != nil {
					return err
				}
				failed += n
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed (errors column)", failed)
	}
	return nil
}

// tally counts one worker's replies in one phase, for all its traffic or for
// one tenant's.
type tally struct {
	ops, gets, hits, sheds, errs uint64
}

// count books one reply and reports whether it was an answer. Answers — a
// hit, a miss, a shed, a stored or deleted key — are throughput; anything
// else is a failure only, so a dead server cannot read as a fast one.
func (t *tally) count(get bool, err error) bool {
	switch {
	case err == nil || errors.Is(err, client.ErrCacheMiss):
	case errors.Is(err, client.ErrServerBusy):
		t.sheds++
	default:
		t.errs++
		return false
	}
	t.ops++
	if get {
		t.gets++
		if err == nil {
			t.hits++
		}
	}
	return true
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.gets += o.gets
	t.hits += o.hits
	t.sheds += o.sheds
	t.errs += o.errs
}

// worker is one client's share of a phase. Its counts and the shared
// histograms are indexed by slot: 0 is all traffic, 1+i is tenant i's.
type worker struct {
	cfg   *config
	b     Benchmarker
	lat   []*obs.Hist // shared by every worker
	tally []tally
	timed []bool // per slot: the current round trip answered one of its ops
	reqNo int    // requests tagged so far, for the tenant round robin
	// The pending pipelined batch.
	keys  []string
	slots []int
	errs  []error
	err   error
}

// key names request id's key and the slot it is booked in.
func (w *worker) key(id uint64) (string, int) {
	slot := 0
	if len(w.cfg.sched) > 0 {
		slot = 1 + w.cfg.sched[w.reqNo%len(w.cfg.sched)]
		w.reqNo++
	}
	return w.cfg.keyOf(slot, id), slot
}

// keyOf names key id in a slot's namespace.
func (cfg *config) keyOf(slot int, id uint64) string {
	if slot == 0 {
		return benchKey(id)
	}
	return cfg.tenants[slot-1] + "/" + benchKey(id)
}

// settle books one round trip's replies, errs[i] for slots[i], and gives the
// round trip, which took d, one latency sample in every slot it answered an
// operation for.
func (w *worker) settle(slots []int, errs []error, get bool, d time.Duration) {
	clear(w.timed)
	for i, s := range slots {
		ok := w.tally[0].count(get, errs[i])
		if s > 0 {
			w.tally[s].count(get, errs[i])
		}
		w.timed[0] = w.timed[0] || ok
		w.timed[s] = w.timed[s] || ok
	}
	for s, ok := range w.timed {
		if ok {
			w.lat[s].Observe(d.Seconds())
		}
	}
}

// do runs one operation on its own round trip.
func (w *worker) do(op kv.Op, key string, slot int, value []byte) error {
	t0 := time.Now()
	var err error
	switch op {
	case kv.Get:
		err = w.b.Get(key)
	case kv.Set:
		err = w.b.Set(key, value)
	case kv.Delete:
		err = w.b.Delete(key)
	}
	w.settle([]int{slot}, []error{err}, op == kv.Get, time.Since(t0))
	return err
}

// flush sends the pending GETs as one pipelined round trip.
func (w *worker) flush() {
	if len(w.keys) == 0 {
		return
	}
	errs := w.errs[:len(w.keys)]
	t0 := time.Now()
	w.b.GetBatch(w.keys, errs)
	w.settle(w.slots, errs, true, time.Since(t0))
	w.keys, w.slots = w.keys[:0], w.slots[:0]
}

// run issues n requests from next. GETs are pipelined when cfg.pipeline > 1
// — in the workload phase every request is, as a storm's GET — and a missed
// GET of the workload phase is refilled with a SET of the request's size.
func (w *worker) run(op string, n int, next func() trace.Request, pattern []byte) {
	replay := op == "workload"
	for i := 0; i < n; i++ {
		r := next()
		key, slot := w.key(r.Key)
		if w.cfg.pipeline > 1 && (r.Op == kv.Get || replay) {
			w.keys, w.slots = append(w.keys, key), append(w.slots, slot)
			if len(w.keys) == w.cfg.pipeline {
				w.flush()
			}
			continue
		}
		err := w.do(r.Op, key, slot, pattern[:r.Size])
		if replay && r.Op == kv.Get && errors.Is(err, client.ErrCacheMiss) {
			w.do(kv.Set, key, slot, pattern[:r.Size])
		}
	}
	w.flush()
}

// source returns worker wi's request stream for a phase. The set, get and
// mixed phases draw uniform keys of fixed-size values; the workload phase
// replays the model, one stream per worker.
func source(cfg *config, model workload.Config, op string, wi, valueBytes, keyspace int) (func() trace.Request, error) {
	if op == "workload" {
		model.Keys = uint64(keyspace)
		model.Seed += uint64(wi) * 1e9
		gen, err := workload.New(model)
		if err != nil {
			return nil, err
		}
		return func() trace.Request {
			r, _ := gen.Next() // a Generator neither ends nor fails
			r.Size = min(r.Size, maxModelValue)
			return r
		}, nil
	}
	rng := rand.New(rand.NewSource(int64(wi)*7919 + 1))
	return func() trace.Request {
		r := trace.Request{Op: kv.Get, Size: uint32(valueBytes)}
		if op == "set" || (op == "mixed" && rng.Float64() >= cfg.getRatio) {
			r.Op = kv.Set
		}
		r.Key = uint64(rng.Intn(keyspace))
		return r
	}, nil
}

// runCase benchmarks one (op, value size, keyspace) cell: cfg.clients
// workers split cfg.requests operations, each worker on its own driver
// instance, latencies merged across workers. It returns the cell's CSV row,
// then one per tenant, and the cell's failed operations.
func runCase(cfg config, mk factory, model workload.Config, op string, valueBytes, keyspace int) (string, uint64, error) {
	switch op {
	case "set", "get", "mixed":
	case "workload":
		valueBytes = 0 // the model's sizes, up to maxModelValue
	default:
		return "", 0, fmt.Errorf("unknown op %q", op)
	}
	pattern := bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), max(valueBytes, maxModelValue)/26+1)
	// GET and mixed phases read a populated keyspace; seed it first so hit
	// ratio measures the server, not the warmup.
	if op == "get" || op == "mixed" {
		if err := seed(cfg, mk, pattern[:valueBytes], keyspace); err != nil {
			return "", 0, err
		}
	}

	slots := 1 + len(cfg.tenants)
	lat := make([]*obs.Hist, slots)
	for s := range lat {
		lat[s] = obs.NewHist(1e-6, 7)
	}
	ws := make([]*worker, cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for wi := range ws {
		w := &worker{
			cfg: &cfg, lat: lat, tally: make([]tally, slots), timed: make([]bool, slots),
			errs: make([]error, cfg.pipeline),
		}
		ws[wi] = w
		// The first requests%clients workers take one request more.
		n := cfg.requests / cfg.clients
		if wi < cfg.requests%cfg.clients {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			next, err := source(&cfg, model, op, wi, valueBytes, keyspace)
			if err == nil {
				w.b, err = mk()
			}
			if err != nil {
				w.err = err
				return
			}
			defer w.b.Close()
			w.run(op, n, next, pattern)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, w := range ws {
		if w.err != nil {
			return "", 0, w.err
		}
	}

	var rows strings.Builder
	var failed uint64
	for s := 0; s < slots; s++ {
		var t tally
		for _, w := range ws {
			t.add(w.tally[s])
		}
		label, hitRatio := cfg.label, 0.0
		if s > 0 {
			label += "/" + cfg.tenants[s-1]
		} else {
			failed = t.errs
		}
		if t.gets > 0 {
			hitRatio = float64(t.hits) / float64(t.gets)
		}
		q := lat[s].Snapshot()
		// The columns of csvHeader, in order.
		fmt.Fprintf(&rows, "%s,%s,%d,%d,%d,%d,%.0f,%.1f,%.1f,%.1f,%.4f,%d,%d\n",
			label, op, cfg.clients, valueBytes, keyspace, cfg.pipeline, float64(t.ops)/elapsed,
			q.Quantile(0.50)*1e6, q.Quantile(0.99)*1e6, q.Quantile(0.999)*1e6, hitRatio, t.errs, t.sheds)
	}
	return rows.String(), failed, nil
}

// seed stores every key of the keyspace once — in every tenant's namespace
// when keys are tagged — split across a few parallel connections so big
// sweeps warm up quickly.
func seed(cfg config, mk factory, value []byte, keyspace int) error {
	seeders := min(cfg.clients, 8)
	errs := make([]error, seeders)
	var wg sync.WaitGroup
	for wi := 0; wi < seeders; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			b, err := mk()
			if err != nil {
				errs[wi] = err
				return
			}
			defer b.Close()
			for k := wi; k < keyspace; k += seeders {
				// Slot 0 when keys are untagged, else every tenant's.
				for slot := min(1, len(cfg.tenants)); slot <= len(cfg.tenants); slot++ {
					key := cfg.keyOf(slot, uint64(k))
					if err := b.Set(key, value); err != nil {
						errs[wi] = fmt.Errorf("seed %s: %w", key, err)
						return
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// benchKey names the i-th key of the keyspace. Fixed width keeps request
// sizes uniform across the sweep.
func benchKey(i uint64) string { return fmt.Sprintf("iperf%08d", i) }
