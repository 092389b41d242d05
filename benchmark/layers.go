package main

// Standalone layer timings: the layers the span decorators cannot reach,
// timed by replaying the workload's own requests through the packages'
// public functions. Each number is a mean over a fixed short loop; they say
// where time goes, and have no bound.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pamakv/internal/accessbuf"
	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/client"
	"pamakv/internal/cluster"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
	"pamakv/internal/proto"
	"pamakv/internal/server"
	"pamakv/internal/shard"
	"pamakv/internal/workload"
)

// layerLoop is how long each standalone timing runs.
const layerLoop = 60 * time.Millisecond

// perCall calls f with 0,1,2,… for about layerLoop and returns the mean
// nanoseconds and heap allocations per call.
func perCall(f func(i int)) (ns, allocs float64) {
	m0 := mallocs()
	start := time.Now()
	n := 0
	for time.Since(start) < layerLoop {
		for k := 0; k < 512; k++ {
			f(n)
			n++
		}
	}
	el := time.Since(start)
	return float64(el) / float64(n), float64(mallocs()-m0) / float64(n)
}

// perCallPar is perCall from every core at once: wall nanoseconds per call
// over all goroutines, which falls as the code under test scales.
func perCallPar(f func(i int)) float64 {
	const each = 200_000
	g := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f(i*g + w)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(each*g)
}

// sample is a slice of the workload's request stream, materialized: the keys
// it asks for and the value each would be SET to.
type sample struct {
	keys   []string
	values [][]byte
}

const sampleOps = 4096

func drawSample(sp *spec, seed uint64) *sample {
	one := *sp
	one.conns = 1
	s := newStream(&one, 0, seed)
	sm := &sample{}
	seen := map[uint32]bool{}
	for len(sm.keys) < sampleOps {
		o := s.next()
		if o.cold || seen[o.id] {
			continue
		}
		seen[o.id] = true
		sm.keys = append(sm.keys, string(appendKey(nil, o)))
		sm.values = append(sm.values, appendValue(nil, o.id, 1, sizeOf(sp.sizes, o.id)))
	}
	return sm
}

// itemSize is the footprint internal/server charges an item.
func itemSize(key string, value []byte) int { return len(key) + len(value) + 56 }

// fill stores the whole sample through set.
func (sm *sample) fill(set func(key string, size int, pen float64, flags uint32, value []byte) error) error {
	for i, k := range sm.keys {
		if err := set(k, itemSize(k, sm.values[i]), penalty.DefaultUnknown, 0, sm.values[i]); err != nil {
			return fmt.Errorf("filling an engine with the sample: %w", err)
		}
	}
	return nil
}

// timeLayers fills m with every standalone per-layer metric.
func timeLayers(sp *spec, seed uint64, m map[string]float64) error {
	sm := drawSample(sp, seed)
	n := len(sm.keys)
	timeGenerator(sp, seed, m)
	if err := timeProto(sm, m); err != nil {
		return err
	}

	// cache and shard: GET hits on one engine, on a two-shard group, and
	// from every core at once.
	eng, err := cache.New(engineConfig(sp.cacheMiB), newPAMA())
	if err != nil {
		return err
	}
	if err := sm.fill(eng.Set); err != nil {
		return err
	}
	buf := make([]byte, 0, maxValue)
	get := func(i int) { eng.Get(sm.keys[i%n], 0, 0, buf[:0]) }
	m["cache.get_hit_ns"], m["cache.allocs_per_get"] = perCall(get)
	m["cache.hot_shard_get_par_ns"] = perCallPar(func(i int) { eng.Get(sm.keys[i%n], 0, 0, nil) })
	missKeys := make([]string, n)
	for i := range missKeys {
		missKeys[i] = "absent" + strconv.Itoa(i)
	}
	m["cache.get_miss_ns"], _ = perCall(func(i int) { eng.Get(missKeys[i%n], 0, 0, buf[:0]) })
	m["cache.set_ns"], m["cache.allocs_per_set"] = perCall(func(i int) {
		k := sm.keys[i%n]
		_ = eng.Set(k, itemSize(k, sm.values[i%n]), penalty.DefaultUnknown, 0, sm.values[i%n]) // an overwrite in place cannot fail
	})
	start := time.Now()
	for _, k := range sm.keys {
		eng.Delete(k)
	}
	m["cache.delete_ns"] = float64(time.Since(start)) / float64(n)

	grp, err := shard.New(engineConfig(sp.cacheMiB), 2, newPAMA)
	if err != nil {
		return err
	}
	if err := sm.fill(grp.Set); err != nil {
		return err
	}
	m["shard.get_ns"], _ = perCall(func(i int) { grp.Get(sm.keys[i%n], 0, 0, buf[:0]) })
	m["shard.get_par_ns"] = perCallPar(func(i int) { grp.Get(sm.keys[i%n], 0, 0, nil) })

	if m["cache.set_evict_ns"], err = timeSetEvict(sm); err != nil {
		return err
	}
	if err := timeSegments(sp, sm, m); err != nil {
		return err
	}

	// accessbuf: one push, with the drain a full ring forces.
	ring := accessbuf.New(256)
	rec := accessbuf.Record{It: &kv.Item{}, CAS: 1, Pen: penalty.DefaultUnknown}
	m["accessbuf.push_ns"], _ = perCall(func(int) {
		if !ring.Push(rec) {
			ring.Drain(func(accessbuf.Record) {})
			ring.Push(rec)
		}
	})

	// backend: one fetch with the value body, as a read-through miss pays.
	be := backend.New(penalty.Default(), workload.ETC().SizeOf)
	ns, _ := perCall(func(i int) { _, _, _, _ = be.FetchErr(sm.keys[i%n], true) }) // no fault plan is installed: it cannot fail
	m["backend.fetch_us"] = ns / 1e3

	// cluster: the owner lookup, and one peer-client round trip.
	r := cluster.NewRing([]string{"127.0.0.1:1", "127.0.0.1:2"}, cluster.DefaultVNodes)
	m["cluster.owner_ns"], _ = perCall(func(i int) { r.Owner(sm.keys[i%n]) })
	return timeHop(sm, m)
}

// timeGenerator times the benchmark's own request generator.
func timeGenerator(sp *spec, seed uint64, m map[string]float64) {
	one := *sp
	one.conns = 1
	s := newStream(&one, 0, seed)
	out := make([]byte, 0, 64<<10)
	m["loadgen.gen_ns_per_req"], _ = perCall(func(int) { out = s.appendRequest(out[:0], s.next()) })
}

// timeProto times parsing and encoding of the sample's requests and replies.
func timeProto(sm *sample, m map[string]float64) error {
	var gets, sets, replies []byte
	for i, k := range sm.keys {
		gets = append(append(append(gets, "get "...), k...), '\r', '\n')
		sets = append(append(append(sets, "set "...), k...), " 0 0 "...)
		sets = append(strconv.AppendInt(sets, int64(len(sm.values[i])), 10), '\r', '\n')
		sets = append(append(sets, sm.values[i]...), '\r', '\n')
		replies = proto.AppendEnd(proto.AppendValue(replies, k, 0, sm.values[i]))
	}
	n := len(sm.keys)
	// replay parses the whole stream rounds times and returns ns and heap
	// allocations per command.
	replay := func(stream []byte, next func() error, reset func(*bytes.Reader)) (float64, float64, error) {
		src := bytes.NewReader(stream)
		reset(src)
		const rounds = 8
		m0 := mallocs()
		start := time.Now()
		for r := 0; r < rounds; r++ {
			src.Reset(stream)
			for i := 0; i < n; i++ {
				if err := next(); err != nil {
					return 0, 0, fmt.Errorf("replaying the sample through proto: %w", err)
				}
			}
			if err := next(); !errors.Is(err, io.EOF) {
				return 0, 0, fmt.Errorf("replaying the sample through proto: want EOF after %d commands, got %v", n, err)
			}
		}
		return float64(time.Since(start)) / (rounds * float64(n)), float64(mallocs()-m0) / (rounds * float64(n)), nil
	}
	br := bufio.NewReaderSize(nil, 1<<16)
	p := proto.NewParser(br)
	defer p.Close()
	parse := func() error { _, err := p.ReadCommand(); return err }
	var err error
	if m["proto.parse_get_ns"], m["proto.parse_allocs_per_cmd"], err = replay(gets, parse, func(s *bytes.Reader) { br.Reset(s) }); err != nil {
		return err
	}
	if m["proto.parse_set_ns"], _, err = replay(sets, parse, func(s *bytes.Reader) { br.Reset(s) }); err != nil {
		return err
	}
	rbr := bufio.NewReaderSize(nil, 1<<16)
	rr := proto.NewRespReader(rbr)
	if m["proto.resp_read_ns"], _, err = replay(replies, func() error { _, err := rr.Next(); return err }, func(s *bytes.Reader) { rbr.Reset(s) }); err != nil {
		return err
	}
	out := make([]byte, 0, 2*maxValue)
	m["proto.encode_value_ns"], _ = perCall(func(i int) {
		out = proto.AppendEnd(proto.AppendValue(out[:0], sm.keys[i%n], 0, sm.values[i%n]))
	})
	return nil
}

// timeSetEvict times SETs of new keys into a full engine: every store must
// find room first (MakeRoom, eviction, perhaps a slab migration).
func timeSetEvict(sm *sample) (float64, error) {
	cfg := engineConfig(8)
	eng, err := cache.New(cfg, newPAMA())
	if err != nil {
		return 0, err
	}
	n := len(sm.keys)
	fresh := func(i int) string { return "fresh" + strconv.Itoa(i) }
	set := func(i int) error {
		v := sm.values[i%n]
		k := fresh(i)
		return eng.Set(k, itemSize(k, v), penalty.DefaultUnknown, 0, v)
	}
	i := 0
	for ; eng.Stats().Evictions == 0; i++ {
		if i > 1<<22 {
			return 0, errors.New("an 8 MiB engine did not start evicting after 4M stores")
		}
		if err := set(i); err != nil {
			return 0, fmt.Errorf("filling the small engine: %w", err)
		}
	}
	const timed = 50_000
	start := time.Now()
	for end := i + timed; i < end; i++ {
		if err := set(i); err != nil {
			return 0, fmt.Errorf("storing into the full engine: %w", err)
		}
	}
	return float64(time.Since(start)) / timed, nil
}

// noSegments turns segment tracking off under an otherwise unchanged policy.
type noSegments struct{ cache.Policy }

func (noSegments) Segments() int      { return 0 }
func (noSegments) GhostSegments() int { return 0 }

// timeSegments times an engine GET hit in immediate mode (every hit pays its
// own tracking) under the exact tracker, the Bloom tracker, and no tracking:
// the paper's claim that Bloom-filter segment membership is cheap.
func timeSegments(sp *spec, sm *sample, m map[string]float64) error {
	n := len(sm.keys)
	buf := make([]byte, 0, maxValue)
	for _, c := range []struct {
		name    string
		tracker cache.TrackerKind
		pol     cache.Policy
	}{
		{"segment.exact_ns_per_get", cache.TrackerExact, newPAMA()},
		{"segment.bloom_ns_per_get", cache.TrackerBloom, newPAMA()},
		{"segment.off_ns_per_get", cache.TrackerExact, noSegments{newPAMA()}},
	} {
		cfg := engineConfig(sp.cacheMiB)
		cfg.AccessBuffer = 0
		cfg.Tracker = c.tracker
		eng, err := cache.New(cfg, c.pol)
		if err != nil {
			return err
		}
		if err := sm.fill(eng.Set); err != nil {
			return err
		}
		m[c.name], _ = perCall(func(i int) { eng.Get(sm.keys[i%n], 0, 0, buf[:0]) })
	}
	return nil
}

// timeHop times one internal/cluster peer-client GET against a live
// single-engine server: the cost a forwarded request adds.
func timeHop(sm *sample, m map[string]float64) error {
	eng, err := cache.New(engineConfig(16), newPAMA())
	if err != nil {
		return err
	}
	if err := sm.fill(eng.Set); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(eng, server.Options{})
	served := make(chan error, 1) // one send from the one Serve goroutine
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		<-served
	}()
	cl := cluster.NewClient(ln.Addr().String(), cluster.ClientOptions{})
	defer cl.Close()
	const trips = 2000
	start := time.Now()
	for i := 0; i < trips; i++ {
		resp, err := cl.Get(sm.keys[i%len(sm.keys)], false, 0)
		if err != nil {
			return fmt.Errorf("peer-client get: %w", err)
		}
		if len(resp.Values) != 1 {
			return fmt.Errorf("peer-client get of a stored key returned %d values", len(resp.Values))
		}
	}
	m["cluster.hop_us"] = float64(time.Since(start)) / trips / 1e3
	return nil
}

// clientProbe times internal/client against the live child: single GETs and
// pipelined batches of 32, over the sample's keys. A miss is an answer too.
func clientProbe(sp *spec, addr string, seed uint64, m map[string]float64) error {
	sm := drawSample(sp, seed)
	cl, err := client.New(client.Config{Addrs: []string{addr}})
	if err != nil {
		return err
	}
	defer cl.Close()
	n := len(sm.keys)
	const trips = 2000
	start := time.Now()
	for i := 0; i < trips; i++ {
		if _, err := cl.Get(sm.keys[i%n]); err != nil && !errors.Is(err, client.ErrCacheMiss) {
			return fmt.Errorf("internal/client get: %w", err)
		}
	}
	m["client.get_rtt_us"] = float64(time.Since(start)) / trips / 1e3
	const batches, depth = 500, 32
	pl := cl.Pipeline()
	start = time.Now()
	for b := 0; b < batches; b++ {
		for i := 0; i < depth; i++ {
			pl.Get(sm.keys[(b*depth+i)%n])
		}
		res, err := pl.Exec()
		if err != nil {
			return fmt.Errorf("internal/client pipeline: %w", err)
		}
		for _, r := range res {
			if r.Err != nil && !errors.Is(r.Err, client.ErrCacheMiss) {
				return fmt.Errorf("internal/client pipeline: %w", r.Err)
			}
		}
	}
	m["client.pipeline_ns_per_op"] = float64(time.Since(start)) / (batches * depth)
	return nil
}
