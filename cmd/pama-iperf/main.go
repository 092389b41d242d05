// Command pama-iperf is an iperf-style cross-backend cache benchmark: it
// drives pamakv, memcached, or redis through one Benchmarker interface and
// emits one CSV row per (operation, value size, keyspace) combination, so a
// single spreadsheet can hold pamakv and its competitors side by side.
//
//	pama-iperf -protocol pamakv   -addrs 127.0.0.1:11211 -value-bytes 100,1024
//	pama-iperf -protocol memc-txt -addrs 127.0.0.1:11212 -value-bytes 100,1024 -no-header
//	pama-iperf -protocol redis    -addrs 127.0.0.1:6379  -value-bytes 100,1024 -no-header
//
// Every protocol answers the same schema:
//
//	label,op,clients,value_bytes,keyspace,pipeline,ops_per_sec,p50_us,p99_us,p999_us,hit_ratio,errors
//
// Latency quantiles are per round trip: with -pipeline > 1 a round trip
// carries that many GETs, which is exactly how the competing servers are
// benchmarked too. Only answered operations are counted and timed; the ones
// that failed are the errors column, and any of them makes the exit status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pamakv/internal/obs"
)

// csvHeader is the one schema every protocol emits.
const csvHeader = "label,op,clients,value_bytes,keyspace,pipeline,ops_per_sec,p50_us,p99_us,p999_us,hit_ratio,errors"

// Benchmarker is the one surface a backend driver must offer. Each worker
// goroutine owns one instance (its own connection), mirroring how the
// classic memtier/getset harnesses drive every backend.
type Benchmarker interface {
	// Set stores value under key.
	Set(key string, value []byte) error
	// Get reads key, reporting whether it hit.
	Get(key string) (hit bool, err error)
	// GetBatch pipelines the keys on one round trip and reports the hits.
	GetBatch(keys []string) (hits int, err error)
	Close() error
}

// factory builds one Benchmarker per worker.
type factory func() (Benchmarker, error)

// config is one full run: sweeps expand into individual benchCases.
type config struct {
	protocol string
	label    string
	addrs    []string
	shard    string
	vnodes   int

	ops        []string // phases, in order: set, get, mixed
	clients    int
	requests   int
	valueSizes []int
	keyspaces  []int
	pipeline   int
	getRatio   float64
	noHeader   bool
}

// row is one CSV output line.
type row struct {
	label      string
	op         string
	clients    int
	valueBytes int
	keyspace   int
	pipeline   int
	opsPerSec  float64
	p50us      float64
	p99us      float64
	p999us     float64
	hitRatio   float64
	errors     uint64
}

func (r row) csv() string {
	return fmt.Sprintf("%s,%s,%d,%d,%d,%d,%.0f,%.1f,%.1f,%.1f,%.4f,%d",
		r.label, r.op, r.clients, r.valueBytes, r.keyspace, r.pipeline,
		r.opsPerSec, r.p50us, r.p99us, r.p999us, r.hitRatio, r.errors)
}

func main() {
	var cfg config
	var addrs, ops, sizes, keyspaces string
	flag.StringVar(&cfg.protocol, "protocol", "pamakv", "backend protocol: pamakv, memc-txt, or redis")
	flag.StringVar(&cfg.label, "label", "", "CSV label column (defaults to the protocol)")
	flag.StringVar(&addrs, "addrs", "127.0.0.1:11211", "server address, or comma-separated members (pamakv protocol shards client-side)")
	flag.StringVar(&cfg.shard, "shard", "ring", "sharding selector for multi-address pamakv: ring or rendezvous")
	flag.IntVar(&cfg.vnodes, "vnodes", 0, "virtual nodes per ring member (0 = default; match the servers')")
	flag.StringVar(&ops, "ops", "set,get", "benchmark phases, comma-separated: set, get, mixed")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent client connections")
	flag.IntVar(&cfg.requests, "requests", 100_000, "requests per phase (split across clients)")
	flag.StringVar(&sizes, "value-bytes", "100", "value sizes to sweep, comma-separated")
	flag.StringVar(&keyspaces, "keys", "10000", "keyspace sizes to sweep, comma-separated")
	flag.IntVar(&cfg.pipeline, "pipeline", 1, "GETs per pipelined round trip (1 = no pipelining)")
	flag.Float64Var(&cfg.getRatio, "get-ratio", 0.9, "GET fraction of the mixed phase")
	flag.BoolVar(&cfg.noHeader, "no-header", false, "suppress the CSV header (appending to an existing file)")
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
	for _, vs := range cfg.valueSizes {
		for _, ks := range cfg.keyspaces {
			for _, op := range cfg.ops {
				r, err := runCase(cfg, mk, op, vs, ks)
				if err != nil {
					return fmt.Errorf("%s/%s vs=%d ks=%d: %w", cfg.protocol, op, vs, ks, err)
				}
				if _, err := fmt.Fprintln(w, r.csv()); err != nil {
					return err
				}
				failed += r.errors
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed (errors column)", failed)
	}
	return nil
}

// workerOut is one worker's tally.
type workerOut struct {
	ops        uint64
	gets, hits uint64
	errs       uint64
	err        error
}

// record accounts one round trip of n operations that took d: answered, they
// count as throughput and the round trip is timed; failed, they count as
// errors only — a dead server must not read as a fast one.
func (o *workerOut) record(lat *obs.Hist, d time.Duration, n int, get bool, hits int, err error) {
	if err != nil {
		o.errs += uint64(n)
		return
	}
	lat.Observe(d.Seconds())
	o.ops += uint64(n)
	if get {
		o.gets += uint64(n)
		o.hits += uint64(hits)
	}
}

// runCase benchmarks one (op, value size, keyspace) cell: cfg.clients
// workers split cfg.requests operations, each worker on its own driver
// instance, latencies merged across workers.
func runCase(cfg config, mk factory, op string, valueBytes, keyspace int) (row, error) {
	switch op {
	case "set", "get", "mixed":
	default:
		return row{}, fmt.Errorf("unknown op %q", op)
	}
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	// GET and mixed phases read a populated keyspace; seed it first so hit
	// ratio measures the server, not the warmup.
	if op != "set" {
		if err := seed(cfg, mk, value, keyspace); err != nil {
			return row{}, err
		}
	}

	outs := make([]workerOut, cfg.clients)
	lat := obs.NewHist(1e-6, 7) // every worker observes into it
	perWorker := cfg.requests / cfg.clients
	if perWorker == 0 {
		perWorker = 1
	}
	var wg sync.WaitGroup
	start := time.Now()
	for wi := 0; wi < cfg.clients; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			out := &outs[wi]
			b, err := mk()
			if err != nil {
				out.err = err
				return
			}
			defer b.Close()
			rng := rand.New(rand.NewSource(int64(wi)*7919 + 1))
			batch := make([]string, 0, cfg.pipeline)
			for done := 0; done < perWorker; {
				switch {
				case op == "set" || (op == "mixed" && rng.Float64() >= cfg.getRatio):
					key := benchKey(rng.Intn(keyspace))
					t0 := time.Now()
					err := b.Set(key, value)
					out.record(lat, time.Since(t0), 1, false, 0, err)
					done++
				case cfg.pipeline == 1:
					key := benchKey(rng.Intn(keyspace))
					t0 := time.Now()
					hit, err := b.Get(key)
					hits := 0
					if hit {
						hits = 1
					}
					out.record(lat, time.Since(t0), 1, true, hits, err)
					done++
				default:
					n := cfg.pipeline
					if left := perWorker - done; n > left {
						n = left
					}
					batch = batch[:0]
					for i := 0; i < n; i++ {
						batch = append(batch, benchKey(rng.Intn(keyspace)))
					}
					t0 := time.Now()
					hits, err := b.GetBatch(batch)
					out.record(lat, time.Since(t0), n, true, hits, err)
					done += n
				}
			}
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	total := lat.Snapshot()
	var ops, gets, hits, errs uint64
	for i := range outs {
		if outs[i].err != nil {
			return row{}, outs[i].err
		}
		ops += outs[i].ops
		gets += outs[i].gets
		hits += outs[i].hits
		errs += outs[i].errs
	}
	hitRatio := 0.0
	if gets > 0 {
		hitRatio = float64(hits) / float64(gets)
	}
	return row{
		label:      cfg.label,
		op:         op,
		clients:    cfg.clients,
		valueBytes: valueBytes,
		keyspace:   keyspace,
		pipeline:   cfg.pipeline,
		opsPerSec:  float64(ops) / elapsed,
		p50us:      total.Quantile(0.50) * 1e6,
		p99us:      total.Quantile(0.99) * 1e6,
		p999us:     total.Quantile(0.999) * 1e6,
		hitRatio:   hitRatio,
		errors:     errs,
	}, nil
}

// seed stores every key of the keyspace once, split across a few parallel
// connections so big sweeps warm up quickly.
func seed(cfg config, mk factory, value []byte, keyspace int) error {
	seeders := cfg.clients
	if seeders > 8 {
		seeders = 8
	}
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
				if err := b.Set(benchKey(k), value); err != nil {
					errs[wi] = fmt.Errorf("seed %s: %w", benchKey(k), err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// benchKey names the i-th key of the keyspace. Fixed width keeps request
// sizes uniform across the sweep.
func benchKey(i int) string { return fmt.Sprintf("iperf%08d", i) }
