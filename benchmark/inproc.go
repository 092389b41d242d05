package main

// The traced run (--trace 1). It has three parts: a short outside-in run for
// the per-layer counts the child reports about itself; the same stack built
// in-process from the public functions cmd/pama-server uses, once bare and
// once with span decorators around server.Store and cache.Policy; and
// standalone timings of the layers the decorators cannot reach (layers.go).
// End-to-end metrics are never taken from here.
//
// This file and layers.go are the only ones that import pamakv/internal; the
// README lists every function they depend on.

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/kv"
	"pamakv/internal/penalty"
	"pamakv/internal/server"
	"pamakv/internal/shard"
	"pamakv/internal/workload"
)

// tracedStore opens a store.* span around each call the server makes for
// get, set and delete, and publishes it as the parent of the policy spans.
type tracedStore struct {
	server.Store
	tr *tracer
}

func (s *tracedStore) open(k spanKind) (ref, time.Time) {
	r, start := s.tr.begin(k)
	s.tr.cur.Store(uint64(r))
	return r, start
}

func (s *tracedStore) done(r ref, start time.Time) {
	s.tr.cur.Store(0)
	s.tr.end(r, ref(s.tr.req.Load()), start)
}

func (s *tracedStore) Get(key string, sizeHint int, penHint float64, buf []byte) ([]byte, uint32, bool) {
	r, start := s.open(spanStoreGet)
	defer s.done(r, start)
	return s.Store.Get(key, sizeHint, penHint, buf)
}

func (s *tracedStore) Set(key string, size int, pen float64, flags uint32, value []byte) error {
	r, start := s.open(spanStoreSet)
	defer s.done(r, start)
	return s.Store.Set(key, size, pen, flags, value)
}

func (s *tracedStore) SetMode(key string, mode cache.SetMode, cas uint64, size int, pen float64, flags uint32, expireAt int64, value []byte) error {
	r, start := s.open(spanStoreSet)
	defer s.done(r, start)
	return s.Store.SetMode(key, mode, cas, size, pen, flags, expireAt, value)
}

func (s *tracedStore) Delete(key string) bool {
	r, start := s.open(spanStoreDelete)
	defer s.done(r, start)
	return s.Store.Delete(key)
}

// tracedPolicy opens a core.* span around the policy hooks ISSUE 14 names.
// One engine calls its policy under its own lock, so open needs no
// synchronization; hooks nest (MakeRoom evicts, which calls OnEvict).
type tracedPolicy struct {
	cache.Policy
	tr   *tracer
	open []ref
}

func (p *tracedPolicy) begin(k spanKind) (r, parent ref, start time.Time) {
	if n := len(p.open); n > 0 {
		parent = p.open[n-1]
	} else {
		parent = ref(p.tr.cur.Load())
	}
	r, start = p.tr.begin(k)
	p.open = append(p.open, r)
	return r, parent, start
}

func (p *tracedPolicy) end(r, parent ref, start time.Time) {
	p.open = p.open[:len(p.open)-1]
	p.tr.end(r, parent, start)
}

func (p *tracedPolicy) MakeRoom(class, sub int) {
	r, parent, start := p.begin(spanMakeRoom)
	defer p.end(r, parent, start)
	p.Policy.MakeRoom(class, sub)
}

func (p *tracedPolicy) OnWindow() {
	r, parent, start := p.begin(spanOnWindow)
	defer p.end(r, parent, start)
	p.Policy.OnWindow()
}

func (p *tracedPolicy) OnInsert(it *kv.Item) {
	r, parent, start := p.begin(spanOnInsert)
	defer p.end(r, parent, start)
	p.Policy.OnInsert(it)
}

func (p *tracedPolicy) OnEvict(it *kv.Item) {
	r, parent, start := p.begin(spanOnEvict)
	defer p.end(r, parent, start)
	p.Policy.OnEvict(it)
}

// RecordBatch forwards cache.BatchRecorder, which the embedded interface
// would otherwise hide from the engine's type assertion.
func (p *tracedPolicy) RecordBatch(hits []cache.BatchHit) {
	r, parent, start := p.begin(spanRecordBatch)
	defer p.end(r, parent, start)
	if p.tr.on.Load() {
		p.tr.hits.Add(int64(len(hits)))
	}
	if br, ok := p.Policy.(cache.BatchRecorder); ok {
		br.RecordBatch(hits)
		return
	}
	for _, h := range hits {
		p.Policy.OnHit(h.It, h.Seg)
	}
}

// engineConfig is the cache.Config cmd/pama-server builds from the flags the
// benchmark passes (-cache N, everything else default).
func engineConfig(cacheMiB int) cache.Config {
	return cache.Config{CacheBytes: int64(cacheMiB) << 20, StoreValues: true, WindowLen: 100_000, AccessBuffer: 256}
}

func newPAMA() cache.Policy { return core.New(core.DefaultConfig()) }

// stack is the serving stack of one workload, in-process: what
// cmd/pama-server wires up for the flags in serverFlags.
type stack struct {
	addr   string // node A, where the clients connect
	srvs   []*server.Server
	groups []*shard.Group
	peers  []*cluster.Peers
	served chan error
}

// newStack builds and starts the stack; tr non-nil installs the decorators.
func newStack(sp *spec, tr *tracer) (*stack, error) {
	n := 1
	if sp.cluster {
		n = 2
	}
	st := &stack{served: make(chan error, n)} // one send per Serve goroutine
	lns := make([]net.Listener, 0, n)
	fail := func(err error) (*stack, error) {
		st.close()
		for _, l := range lns {
			l.Close() // a listener a server already took is closed twice: harmless
		}
		return nil, err
	}
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns, addrs[i] = append(lns, ln), ln.Addr().String()
	}
	st.addr = addrs[0]
	for i, ln := range lns {
		g, err := shard.New(engineConfig(sp.cacheMiB), 2, func() cache.Policy {
			if tr != nil {
				return &tracedPolicy{Policy: newPAMA(), tr: tr}
			}
			return newPAMA()
		})
		if err != nil {
			return fail(err)
		}
		g.StartMaintainers(0)
		st.groups = append(st.groups, g)
		opts := server.Options{ReadTimeout: 5 * time.Minute, WriteTimeout: 30 * time.Second, MaxConns: 1024}
		if sp.readthrough {
			opts.Backend = backend.NewRealTime(penalty.Default(), workload.ETC().SizeOf, 0)
		}
		if sp.cluster {
			peers, err := cluster.New(cluster.Config{
				Self: addrs[i], Members: addrs, Hash: "ring", VNodes: cluster.DefaultVNodes,
				Client: cluster.ClientOptions{PoolSize: cluster.DefaultPoolSize, Retries: cluster.DefaultRetries, OpTimeout: cluster.DefaultOpTimeout},
				Hedge:  cluster.DefaultHedgePolicy(),
			})
			if err != nil {
				return fail(err)
			}
			st.peers = append(st.peers, peers)
			opts.Cluster, opts.HotCacheTTL, opts.HotCacheBytes = peers, cluster.DefaultHotCacheTTL, 4<<20
		}
		var store server.Store = g
		if tr != nil {
			store = &tracedStore{Store: g, tr: tr}
		}
		srv := server.New(store, opts)
		st.srvs = append(st.srvs, srv)
		go func() { st.served <- srv.Serve(ln) }()
	}
	return st, nil
}

// close shuts the servers down and waits for their accept loops.
func (st *stack) close() {
	for _, s := range st.srvs {
		s.Shutdown()
	}
	for range st.srvs {
		<-st.served
	}
	for _, p := range st.peers {
		p.Close()
	}
	for _, g := range st.groups {
		g.StopMaintainers()
	}
}

// inprocPass warms a fresh in-process stack through one connection and then
// drives it for d. It returns the operations done, the wall time, and the
// heap allocations per operation of the whole process during the timed part.
func inprocPass(sp *spec, seed uint64, d time.Duration, tr *tracer) (ops uint64, wall time.Duration, allocs float64, err error) {
	one := *sp
	one.conns = 1
	st, err := newStack(&one, tr)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.close()
	lcs, err := dialLoad(&one, st.addr, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	defer closeLoad(lcs)
	if _, err := warm(lcs, time.Time{}); err != nil {
		return 0, 0, 0, err
	}
	lc := lcs[0]
	if lc.failed > 0 {
		return 0, 0, 0, fmt.Errorf("%d failed operations while warming the in-process stack", lc.failed)
	}
	if tr != nil {
		tr.on.Store(true)
		defer tr.on.Store(false)
	}
	a0, m0 := lc.attempted, mallocs()
	start := time.Now()
	if err := lc.run(one.depth, start, start.Add(d), nil, tr); err != nil {
		return 0, 0, 0, err
	}
	wall = time.Since(start)
	ops = lc.attempted - a0
	if lc.failed > 0 {
		return 0, 0, 0, fmt.Errorf("%d failed operations against the in-process stack", lc.failed)
	}
	return ops, wall, ratio(float64(mallocs()-m0), float64(ops)), nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runTraced is the --trace 1 run.
func runTraced(sp *spec, bin, root string, seed uint64, seconds int, buildS float64) (result, error) {
	m := map[string]float64{"loadgen.build_s": buildS}

	// Part 1: the child, for a third of the time, set up once.
	third := max(seconds/3, 1)
	out, err := runOutside(sp, bin, seed, third, 1, func(e *env) error { return clientProbe(sp, e.nodes[0].addr, seed, m) })
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Correct: out.ok(), Metrics: map[string]metricValue{}}
	for k, v := range out.m {
		m[k] = v
	}

	// Part 2: the in-process stack, bare and then decorated.
	d := time.Duration(third) * time.Second
	offOps, offWall, allocs, err := inprocPass(sp, seed, d, nil)
	if err != nil {
		return result{}, fmt.Errorf("in-process pass, decorators off: %w", err)
	}
	tr := newTracer()
	onOps, onWall, _, err := inprocPass(sp, seed, d, tr)
	if err != nil {
		return result{}, fmt.Errorf("in-process pass, decorators on: %w", err)
	}
	path, err := tr.writeRaw(root, sp.name)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# %s: %d raw spans of 1 request in %d written to %s\n", sp.name, len(tr.raw), sampleRequests, path)

	// Part 3: the layers the decorators cannot reach.
	if err := timeLayers(sp, seed, m); err != nil {
		return result{}, err
	}

	ns := func(k spanKind) float64 { return float64(tr.agg[k].total.Load() + tr.agg[k].orphan.Load()) }
	count := func(k spanKind) float64 { return float64(tr.agg[k].count.Load()) }
	var storeNS, coreInStoreNS float64
	for k := spanStoreGet; k <= spanStoreDelete; k++ {
		storeNS += float64(tr.agg[k].total.Load())
		coreInStoreNS += float64(tr.agg[k].children.Load())
	}
	reqNS := float64(tr.agg[spanRequest].total.Load())
	protoNS := m["proto.parse_get_ns"] + m["proto.encode_value_ns"]
	m["trace.request_us"] = tr.mean(spanRequest) / 1e3
	m["trace.self_sum_share"] = tr.selfSumShare()
	m["trace.overhead_share"] = 1 - ratio(float64(onOps)/onWall.Seconds(), float64(offOps)/offWall.Seconds())
	m["server.self_us_per_op"] = (ratio(reqNS-storeNS, float64(onOps)) - protoNS) / 1e3
	m["server.allocs_per_op"] = allocs
	m["shard.span_get_us"] = tr.mean(spanStoreGet) / 1e3
	m["shard.span_set_us"] = tr.mean(spanStoreSet) / 1e3
	m["shard.span_delete_us"] = tr.mean(spanStoreDelete) / 1e3
	m["core.make_room_ns"] = tr.mean(spanMakeRoom)
	m["core.make_room_calls_per_kset"] = ratio(count(spanMakeRoom)*1e3, count(spanStoreSet))
	m["core.record_batch_ns_per_hit"] = ratio(ns(spanRecordBatch), float64(tr.hits.Load()))
	m["core.on_window_us"] = tr.mean(spanOnWindow) / 1e3
	m["core.share_of_store_time"] = ratio(coreInStoreNS, storeNS)

	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", def.Name)
		}
		res.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	return res, nil
}
