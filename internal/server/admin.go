package server

// The admin listener is the live observability surface: a second, plain-HTTP
// port (never the cache port — monitoring must not compete with the data
// path's accept queue) exposing
//
//	/metrics       Prometheus text format 0.0.4
//	/statsz        JSON superset of the in-band `stats` command
//	/series        paper-style windowed TSV (hit ratio / service time per
//	               sampling window, the live analogue of the simulator's
//	               figure data)
//	/healthz       liveness probe
//	/debug/pprof/  the standard Go profiler endpoints
//
// Everything here is cold-path: snapshots are taken under the engine lock
// exactly as the `stats` command takes them, and nothing is accumulated that
// the serving path does not already maintain.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/membership"
	"pamakv/internal/metrics"
	"pamakv/internal/obs"
	"pamakv/internal/overload"
	"pamakv/internal/tenant"
)

// introspector is optionally implemented by stores that expose the engine's
// full introspection snapshot (*cache.Cache does; *shard.Group merges its
// shards'). Stores without it still serve /metrics and /statsz, minus the
// per-subclass and slab-move detail.
type introspector interface{ Introspect() cache.Introspection }

// accessBufStatser is optionally implemented by stores running the
// lock-amortized read path (*cache.Cache, and *shard.Group merging its
// shards'). Immediate-mode stores report Enabled=false and the section is
// omitted.
type accessBufStatser interface{ AccessBufStats() cache.AccessBufStats }

// Admin serves the observability endpoints for one Server. Construct with
// NewAdmin; it does not listen until Serve or ListenAndServe.
type Admin struct {
	srv   *Server
	rec   *obs.Recorder
	every time.Duration
	mux   *http.ServeMux
	hs    *http.Server

	mu      sync.Mutex
	ln      net.Listener
	stopC   chan struct{}
	started bool
	wg      sync.WaitGroup
}

// NewAdmin builds the admin surface for srv. sampleEvery > 0 runs a
// background sampler that closes one /series window per interval; 0 disables
// the series (the other endpoints are snapshot-on-demand and need no
// sampler).
func NewAdmin(srv *Server, sampleEvery time.Duration) *Admin {
	a := &Admin{
		srv:   srv,
		rec:   obs.NewRecorder("live"),
		every: sampleEvery,
		mux:   http.NewServeMux(),
	}
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	a.mux.HandleFunc("/statsz", a.handleStatsz)
	a.mux.HandleFunc("/series", a.handleSeries)
	a.mux.HandleFunc("/membershipz", a.handleMembershipz)
	a.mux.HandleFunc("/membership/add", a.handleMembershipAdd)
	a.mux.HandleFunc("/membership/remove", a.handleMembershipRemove)
	a.mux.HandleFunc("/membership/drain", a.handleMembershipDrain)
	a.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// pprof registers on http.DefaultServeMux via init; wire it into this
	// private mux explicitly so the admin port works even when the default
	// mux is never served.
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.hs = &http.Server{Handler: a.mux, ReadHeaderTimeout: 5 * time.Second}
	return a
}

// Handler returns the admin HTTP handler (for embedding in an existing mux
// or driving with httptest).
func (a *Admin) Handler() http.Handler { return a.mux }

// ListenAndServe listens on addr and serves until Close.
func (a *Admin) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return a.Serve(ln)
}

// Serve serves admin requests on ln until Close. A clean Close returns nil.
func (a *Admin) Serve(ln net.Listener) error {
	a.mu.Lock()
	a.ln = ln
	if a.every > 0 && !a.started {
		a.started = true
		a.stopC = make(chan struct{})
		a.wg.Add(1)
		go a.sampleLoop()
	}
	a.mu.Unlock()
	err := a.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr returns the bound admin address ("" before Serve).
func (a *Admin) Addr() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// Close stops the listener and the sampler. Safe to call more than once.
func (a *Admin) Close() error {
	a.mu.Lock()
	if a.stopC != nil {
		close(a.stopC)
		a.stopC = nil
	}
	a.mu.Unlock()
	err := a.hs.Close()
	a.wg.Wait()
	return err
}

// Sample closes one /series window immediately (the sampler does this on a
// timer; tests and the stats poller may force it).
func (a *Admin) Sample() {
	st := a.srv.c.Stats()
	svc := 0.0
	if b := a.srv.opts.Backend; b != nil {
		svc = b.TotalPenalty()
	}
	a.rec.Sample(st.Gets, st.Hits, svc, a.srv.c.SnapshotSlabs())
}

func (a *Admin) sampleLoop() {
	defer a.wg.Done()
	a.mu.Lock()
	done := a.stopC
	a.mu.Unlock()
	t := time.NewTicker(a.every)
	defer t.Stop()
	a.Sample() // baseline, so the first tick closes a real window
	for {
		select {
		case <-done:
			return
		case <-t.C:
			a.Sample()
		}
	}
}

// handleMetrics renders the Prometheus exposition. Matrix cells with zero
// counts are skipped (a classes×classes move matrix is mostly zeros; an
// absent sample and a zero counter read the same to Prometheus rate()).
func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	st := a.srv.c.Stats()
	p.Counter("pamakv_gets_total", "GET requests served by the engine.", st.Gets)
	p.Counter("pamakv_hits_total", "GET requests answered from cache.", st.Hits)
	p.Counter("pamakv_misses_total", "GET requests not resident.", st.Misses)
	p.Counter("pamakv_sets_total", "Store operations accepted.", st.Sets)
	p.Counter("pamakv_overwrites_total", "Stores that replaced a resident item in place (sets minus these inserted one).", st.Overwrites)
	p.Counter("pamakv_deletes_total", "Delete operations.", st.Deletes)
	p.Counter("pamakv_evictions_total", "Items evicted to make room.", st.Evictions)
	p.Counter("pamakv_ghost_hits_total", "Misses whose key was in a ghost region.", st.GhostHits)
	p.Counter("pamakv_expired_total", "Items removed by TTL expiry.", st.Expired)
	p.Counter("pamakv_stale_gets_total", "Reads answered from the stale buffer.", st.StaleGets)
	p.Counter("pamakv_slab_migrations_total", "Cross-class slab moves.", st.SlabMigrations)
	p.Gauge("pamakv_items", "Resident items.", float64(a.srv.c.Items()))

	if ab, ok := a.srv.c.(accessBufStatser); ok {
		if abs := ab.AccessBufStats(); abs.Enabled {
			p.Gauge("pamakv_accessbuf_depth", "Deferred access records currently buffered in the MPSC rings.", float64(abs.Depth))
			p.Gauge("pamakv_accessbuf_ring_capacity", "Per-ring record capacity times rings per engine.", float64(abs.Rings*abs.RingCap))
			p.Counter("pamakv_accessbuf_drains_total", "Batched drain passes that applied at least one record.", abs.Drains)
			p.Counter("pamakv_accessbuf_drained_records_total", "Deferred access records applied under the engine lock.", abs.Drained)
			p.Gauge("pamakv_accessbuf_max_batch", "Largest single drain pass (records per lock acquisition).", float64(abs.MaxBatch))
			p.Counter("pamakv_accessbuf_full_drains_total", "Drains forced by a producer finding its ring full.", abs.FullDrains)
			p.Counter("pamakv_accessbuf_lock_wait_ns_total", "Lock wait paid by the read path on full-ring drains.", abs.LockWaitNs)
			p.Counter("pamakv_accessbuf_stale_refs_total", "Drained records skipped by the incarnation check.", abs.StaleRefs)
		}
	}

	if in, ok := a.srv.c.(introspector); ok {
		a.writeIntrospection(p, in.Introspect())
	} else {
		p.Header("pamakv_slabs", "Slabs owned per size class.", "gauge")
		for cl, n := range a.srv.c.SnapshotSlabs() {
			p.Value("pamakv_slabs", `class="`+strconv.Itoa(cl)+`"`, float64(n))
		}
	}

	ss := a.srv.Stats()
	p.Counter("pamakv_connections_total", "Connections ever accepted.", ss.Conns)
	p.Gauge("pamakv_connections", "Connections open now.", float64(ss.CurrConns))
	p.Counter("pamakv_client_errors_total", "Malformed requests.", ss.ClientErrors)
	p.Counter("pamakv_server_errors_total", "SERVER_ERROR replies.", ss.ServerErrors)
	p.Counter("pamakv_io_errors_total", "Socket failures.", ss.IOErrors)
	p.Counter("pamakv_idle_timeouts_total", "Connections closed by the idle deadline.", ss.IdleTimeouts)
	p.Counter("pamakv_response_batches_total", "Pipelined response flushes.", ss.Batches)
	p.Counter("pamakv_batched_commands_total", "Requests served across batches.", ss.BatchedCmds)
	p.Counter("pamakv_stale_serves_total", "GETs degraded to a stale value.", ss.StaleServes)

	rt := readRuntime()
	p.Counter("pamakv_go_gc_cycles_total", "Completed Go garbage-collection cycles.", rt.GCCycles)
	p.Header("pamakv_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter")
	p.Value("pamakv_go_gc_pause_seconds_total", "", rt.GCPauseSeconds)
	p.Gauge("pamakv_go_heap_alloc_bytes", "Bytes of live and not-yet-swept Go heap objects.", float64(rt.HeapAllocBytes))

	p.Header("pamakv_request_seconds", "Request latency from batch arrival to flush, by command family.", "histogram")
	for fam, snap := range a.srv.Latencies() {
		p.Histogram("pamakv_request_seconds", `cmd="`+fam+`"`, snap)
	}

	if b := a.srv.opts.Backend; b != nil {
		p.Counter("pamakv_backend_fetches_total", "Backend fetches (read-through misses).", b.Fetches())
		p.Counter("pamakv_backend_retries_total", "Backend fetch re-attempts.", ss.BackendRetries)
		p.Counter("pamakv_backend_timeouts_total", "Backend attempts cut by FetchTimeout.", ss.BackendTimeouts)
		p.Counter("pamakv_backend_failures_total", "Fetch chains that exhausted retries.", ss.BackendFailures)
		p.Header("pamakv_backend_fetch_seconds", "Wall-clock backend fetch latency.", "histogram")
		p.Histogram("pamakv_backend_fetch_seconds", "", b.FetchLatency())
		p.Gauge("pamakv_backend_penalty_seconds_total", "Accumulated simulated miss penalty.", b.TotalPenalty())
	}

	if c := a.srv.ctrl; c != nil {
		a.writeOverloadMetrics(p, c.Stats(), ss)
	}
	if a.srv.peers != nil {
		a.writeClusterMetrics(p, ss)
	}
	if arb := a.srv.opts.Tenants.Arbiter(); arb != nil {
		a.writeTenantMetrics(p, arb)
	}
	if m := a.srv.mem; m != nil {
		a.writeMembershipMetrics(p, m.Stats())
	}
	_ = p.Err() // the peer hung up; nothing to do
}

// writeTenantMetrics renders the multi-tenant accounting: one labelled series
// per tenant for occupancy, traffic, and arbitration flow, plus the arbiter's
// own counters and its tenant-to-tenant move matrix. Slab moves are the
// observable core of the scheme — pamakv_tenant_slabs_{in,out}_total and the
// matrix prove memory is actually flowing toward the needier tenant.
func (a *Admin) writeTenantMetrics(p *obs.PromWriter, arb *tenant.Arbiter) {
	snaps := arb.Snapshots()
	series := func(typ, name, help string, get func(tenant.Snapshot) float64) {
		p.Header(name, help, typ)
		for _, s := range snaps {
			p.Value(name, `tenant="`+s.Name+`"`, get(s))
		}
	}
	series("gauge", "pamakv_tenant_slabs", "Slabs currently budgeted to the tenant.",
		func(s tenant.Snapshot) float64 { return float64(s.Slabs) })
	series("gauge", "pamakv_tenant_reserve_slabs", "Slab floor the arbiter never breaches.",
		func(s tenant.Snapshot) float64 { return float64(s.ReserveSlabs) })
	series("gauge", "pamakv_tenant_free_slabs", "Tenant slabs not yet granted to a class.",
		func(s tenant.Snapshot) float64 { return float64(s.FreeSlabs) })
	series("gauge", "pamakv_tenant_items", "Resident items owned by the tenant.",
		func(s tenant.Snapshot) float64 { return float64(s.Items) })
	series("gauge", "pamakv_tenant_used_bytes", "Slot bytes occupied by the tenant's items.",
		func(s tenant.Snapshot) float64 { return float64(s.UsedBytes) })
	series("gauge", "pamakv_tenant_reserved_bytes", "Configured memory reserve.",
		func(s tenant.Snapshot) float64 { return float64(s.ReservedBytes) })
	series("gauge", "pamakv_tenant_weight", "Arbitration weight.",
		func(s tenant.Snapshot) float64 { return s.Weight })
	series("gauge", "pamakv_tenant_slo_class", "Overload SLO class (0 = most protected).",
		func(s tenant.Snapshot) float64 { return float64(s.SLOClass) })
	series("counter", "pamakv_tenant_gets_total", "GETs routed to the tenant.",
		func(s tenant.Snapshot) float64 { return float64(s.Gets) })
	series("counter", "pamakv_tenant_hits_total", "GET hits in the tenant's engines.",
		func(s tenant.Snapshot) float64 { return float64(s.Hits) })
	series("counter", "pamakv_tenant_misses_total", "GET misses in the tenant's engines.",
		func(s tenant.Snapshot) float64 { return float64(s.Misses) })
	series("counter", "pamakv_tenant_evictions_total", "Items evicted from the tenant's engines.",
		func(s tenant.Snapshot) float64 { return float64(s.Evictions) })
	series("counter", "pamakv_tenant_slabs_in_total", "Slabs received from other tenants by arbitration.",
		func(s tenant.Snapshot) float64 { return float64(s.SlabsIn) })
	series("counter", "pamakv_tenant_slabs_out_total", "Slabs donated to other tenants by arbitration.",
		func(s tenant.Snapshot) float64 { return float64(s.SlabsOut) })
	series("gauge", "pamakv_tenant_incoming_value", "Marginal penalty saved per window were the tenant granted one slab (last arbiter step).",
		func(s tenant.Snapshot) float64 { return s.Incoming })
	series("gauge", "pamakv_tenant_outgoing_value", "Marginal penalty paid per window giving one slab up (last arbiter step).",
		func(s tenant.Snapshot) float64 { return s.Outgoing })

	ast := arb.Stats()
	p.Counter("pamakv_tenant_arbiter_steps_total", "Arbitration rounds run.", ast.Steps)
	p.Counter("pamakv_tenant_arbiter_moves_total", "Slabs moved between tenants.", ast.Moves)
	p.Header("pamakv_tenant_slab_moves_total", "Slabs moved by donor and receiver tenant.", "counter")
	for d, row := range ast.Matrix {
		for r, n := range row {
			if n != 0 && d < len(ast.Members) && r < len(ast.Members) {
				p.Value("pamakv_tenant_slab_moves_total",
					`donor="`+ast.Members[d].Name+`",receiver="`+ast.Members[r].Name+`"`, float64(n))
			}
		}
	}
}

// writeOverloadMetrics renders the admission controller: the adaptive limit
// under its hard ceiling, live occupancy, the pressure tier, shed counters by
// reason and by penalty subclass, and the queue-sojourn and service-latency
// histograms the limiter steers on.
func (a *Admin) writeOverloadMetrics(p *obs.PromWriter, os overload.Stats, ss Stats) {
	p.Gauge("pamakv_overload_limit", "Adaptive concurrency limit.", float64(os.Limit))
	p.Gauge("pamakv_overload_max_inflight", "Hard in-flight ceiling.", float64(os.MaxInflight))
	p.Gauge("pamakv_overload_inflight", "Requests admitted and in flight.", float64(os.Inflight))
	p.Gauge("pamakv_overload_queued", "Requests waiting for admission.", float64(os.Queued))
	p.Gauge("pamakv_overload_peak_inflight", "High-water mark of admitted concurrency.", float64(os.PeakInflight))
	p.Gauge("pamakv_overload_tier", "Pressure tier (0 normal .. 3 critical).", float64(os.Tier))
	p.Counter("pamakv_overload_admitted_total", "Requests admitted past the controller.", os.Admitted)
	p.Counter("pamakv_overload_queued_total", "Requests that waited in the admission queue.", os.QueuedTotal)
	p.Counter("pamakv_overload_limit_increases_total", "AIMD limit raises.", os.LimitIncreases)
	p.Counter("pamakv_overload_limit_decreases_total", "AIMD limit cuts.", os.LimitDecreases)
	p.Counter("pamakv_sheds_total", "Requests refused at admission with a shed reply.", ss.Sheds)
	p.Counter("pamakv_shed_fetches_total", "Backend fetches suppressed by the overload tier.", ss.FetchSheds)
	p.Counter("pamakv_peer_sheds_total", "Forwards the owning peer refused with a shed reply.", ss.PeerSheds)
	p.Header("pamakv_overload_sheds_total", "Sheds by reason.", "counter")
	for _, r := range metrics.SortedNames(os.ShedByReason) {
		p.Value("pamakv_overload_sheds_total", `reason="`+r+`"`, float64(os.ShedByReason[r]))
	}
	p.Header("pamakv_overload_sheds_by_sub_total", "Sheds by penalty subclass.", "counter")
	for sub, n := range os.ShedBySub {
		if n != 0 {
			p.Value("pamakv_overload_sheds_by_sub_total", `sub="`+strconv.Itoa(sub)+`"`, float64(n))
		}
	}
	p.Header("pamakv_overload_sheds_by_slo_total", "Sheds by the requesting tenant's SLO class.", "counter")
	for slo, n := range os.ShedBySLO {
		if n != 0 {
			p.Value("pamakv_overload_sheds_by_slo_total", `slo="`+strconv.Itoa(slo)+`"`, float64(n))
		}
	}
	p.Header("pamakv_overload_sojourn_seconds", "Admission-queue waiting time.", "histogram")
	p.Histogram("pamakv_overload_sojourn_seconds", "", os.Sojourn)
	p.Header("pamakv_overload_service_seconds", "Observed service latency feeding the limiter.", "histogram")
	p.Histogram("pamakv_overload_service_seconds", "", os.Service)
}

// writeClusterMetrics renders the cluster tier: forwarding outcomes, the
// hot-item mini-cache, and a labelled series per remote peer (requests,
// failure modes, hedging, breaker state, round-trip latency). Peers are
// emitted in sorted address order so scrapes diff cleanly.
func (a *Admin) writeClusterMetrics(p *obs.PromWriter, ss Stats) {
	p.Counter("pamakv_cluster_forwards_total", "Requests relayed to an owning peer.", ss.PeerForwards)
	p.Counter("pamakv_cluster_peer_hits_total", "Forwarded GETs the owner answered with a value.", ss.PeerHits)
	p.Counter("pamakv_cluster_peer_errors_total", "Forwards failed at transport level.", ss.PeerErrors)
	p.Counter("pamakv_cluster_fallbacks_total", "Failed GET forwards degraded to a local backend fetch.", ss.PeerFallbacks)
	p.Counter("pamakv_cluster_exchanges_total", "Pipelined peer exchanges (one per owner per batch).", ss.PeerExchanges)
	p.Counter("pamakv_cluster_exchanged_commands_total", "Forwards carried across peer exchanges.", ss.PeerExchangedCmds)
	if hc, ok := a.srv.HotCacheStats(); ok {
		p.Counter("pamakv_hot_cache_hits_total", "Remote-owned GETs served from the hot-item mini-cache.", hc.Hits)
		p.Counter("pamakv_hot_cache_misses_total", "Hot-cache lookups that fell through to the owner.", hc.Misses)
		p.Counter("pamakv_hot_cache_evictions_total", "Hot-cache entries evicted past the byte budget.", hc.Evicts)
		p.Gauge("pamakv_hot_cache_bytes", "Bytes resident in the hot-item mini-cache.", float64(hc.Bytes))
		p.Gauge("pamakv_hot_cache_items", "Entries resident in the hot-item mini-cache.", float64(hc.Items))
	}

	snaps := a.srv.peers.Snapshots()
	addrs := metrics.SortedNames(snaps)

	counter := func(name, help string, get func(cluster.ClientStats) uint64) {
		p.Header(name, help, "counter")
		for _, addr := range addrs {
			p.Value(name, `peer="`+addr+`"`, float64(get(snaps[addr])))
		}
	}
	counter("pamakv_peer_requests_total", "Ops admitted past the peer's circuit breaker.",
		func(s cluster.ClientStats) uint64 { return s.Requests })
	counter("pamakv_peer_errors_total", "Ops failed at transport level after retries.",
		func(s cluster.ClientStats) uint64 { return s.Errors })
	counter("pamakv_peer_retries_total", "Per-attempt transport retries.",
		func(s cluster.ClientStats) uint64 { return s.Retries })
	counter("pamakv_peer_dials_total", "Connections established to the peer.",
		func(s cluster.ClientStats) uint64 { return s.Dials })
	counter("pamakv_peer_fast_fails_total", "Ops rejected by the open breaker without touching the wire.",
		func(s cluster.ClientStats) uint64 { return s.FastFails })
	counter("pamakv_peer_breaker_opens_total", "Times the peer's circuit opened.",
		func(s cluster.ClientStats) uint64 { return s.BreakerOpens })
	counter("pamakv_peer_hedges_total", "Hedged duplicate reads fired.",
		func(s cluster.ClientStats) uint64 { return s.Hedges })
	counter("pamakv_peer_hedge_wins_total", "Hedged duplicates that answered before the primary.",
		func(s cluster.ClientStats) uint64 { return s.HedgeWins })
	p.Header("pamakv_peer_breaker_open", "Whether the peer's circuit is rejecting right now.", "gauge")
	for _, addr := range addrs {
		v := 0.0
		if snaps[addr].BreakerOpen {
			v = 1.0
		}
		p.Value("pamakv_peer_breaker_open", `peer="`+addr+`"`, v)
	}
	p.Header("pamakv_peer_request_seconds", "Peer round-trip latency (hedged ops observe the winner).", "histogram")
	for _, addr := range addrs {
		p.Histogram("pamakv_peer_request_seconds", `peer="`+addr+`"`, snaps[addr].Latency)
	}
}

// writeIntrospection renders the engine's allocation state: the per-class
// slab series behind the paper's Fig. 3, per-subclass stack depths (Fig. 4),
// penalty-band hit/miss attribution, the src→dst move matrix, and the
// policy's decision counters.
func (a *Admin) writeIntrospection(p *obs.PromWriter, in cache.Introspection) {
	p.Header("pamakv_slabs", "Slabs owned per size class.", "gauge")
	for cl, n := range in.Slabs {
		p.Value("pamakv_slabs", `class="`+strconv.Itoa(cl)+`"`, float64(n))
	}
	p.Gauge("pamakv_free_slabs", "Slabs not yet granted to any class.", float64(in.FreeSlabs))
	p.Gauge("pamakv_total_slabs", "Slab budget.", float64(in.TotalSlabs))
	p.Header("pamakv_used_slots", "Occupied slots per size class.", "gauge")
	for cl, n := range in.UsedSlots {
		p.Value("pamakv_used_slots", `class="`+strconv.Itoa(cl)+`"`, float64(n))
	}

	p.Header("pamakv_holes_bytes", "Internal fragmentation per size class: slot bytes occupied by residents but unused.", "gauge")
	var holesTotal int64
	for cl, n := range in.BytesHoles {
		holesTotal += n
		if n != 0 {
			p.Value("pamakv_holes_bytes", `class="`+strconv.Itoa(cl)+`"`, float64(n))
		}
	}
	p.Gauge("pamakv_holes_bytes_total", "Internal fragmentation across all classes.", float64(holesTotal))
	p.Header("pamakv_free_value_buffers", "Released value slots stacked for reuse per size class (at most the class's free slots).", "gauge")
	for cl, n := range in.FreeValueBuffers {
		if n != 0 {
			p.Value("pamakv_free_value_buffers", `class="`+strconv.Itoa(cl)+`"`, float64(n))
		}
	}

	p.Header("pamakv_subclass_items", "Resident items per (class, penalty subclass) LRU stack.", "gauge")
	for cl, row := range in.SubLens {
		for sub, n := range row {
			if n != 0 {
				p.Value("pamakv_subclass_items", subLabels(cl, sub), float64(n))
			}
		}
	}
	p.Header("pamakv_subclass_hits_total", "GET hits by (class, penalty subclass).", "counter")
	for cl, row := range in.SubHits {
		for sub, n := range row {
			if n != 0 {
				p.Value("pamakv_subclass_hits_total", subLabels(cl, sub), float64(n))
			}
		}
	}
	p.Header("pamakv_subclass_misses_total", "Attributed GET misses by would-be (class, penalty subclass).", "counter")
	for cl, row := range in.SubMisses {
		for sub, n := range row {
			if n != 0 {
				p.Value("pamakv_subclass_misses_total", subLabels(cl, sub), float64(n))
			}
		}
	}
	p.Header("pamakv_slab_moves_total", "Cross-class slab moves by donor and receiver class.", "counter")
	for src, row := range in.SlabMoves {
		for dst, n := range row {
			if n != 0 {
				p.Value("pamakv_slab_moves_total",
					`src="`+strconv.Itoa(src)+`",dst="`+strconv.Itoa(dst)+`"`, float64(n))
			}
		}
	}

	if d := in.Decisions; d != nil {
		p.Counter("pamakv_policy_migrations_total", "Slab migrations the policy performed.", d.Migrations)
		p.Counter("pamakv_policy_same_class_total", "Replacements kept in-class (cheapest candidate was local).", d.SameClass)
		p.Counter("pamakv_policy_not_worth_it_total", "Migrations declined on price (incoming <= outgoing value).", d.NotWorthIt)
		p.Counter("pamakv_policy_forced_total", "Migrations forced by an empty class.", d.Forced)
		if len(d.EvictsBySub) > 0 {
			p.Header("pamakv_policy_evictions_total", "Evictions by penalty subclass.", "counter")
			for sub, n := range d.EvictsBySub {
				p.Value("pamakv_policy_evictions_total", `sub="`+strconv.Itoa(sub)+`"`, float64(n))
			}
		}
		if len(d.EvictedPenaltyBySub) > 0 {
			p.Header("pamakv_policy_evicted_penalty_seconds_total", "Summed miss penalty of evicted items by subclass.", "counter")
			for sub, v := range d.EvictedPenaltyBySub {
				p.Value("pamakv_policy_evicted_penalty_seconds_total", `sub="`+strconv.Itoa(sub)+`"`, v)
			}
		}
	}
}

func subLabels(cl, sub int) string {
	return `class="` + strconv.Itoa(cl) + `",sub="` + strconv.Itoa(sub) + `"`
}

// BackendStatsz is the backend section of /statsz.
type BackendStatsz struct {
	Fetches             uint64           `json:"fetches"`
	TotalPenaltySeconds float64          `json:"total_penalty_seconds"`
	InjectedErrors      uint64           `json:"injected_errors"`
	InjectedSpikes      uint64           `json:"injected_spikes"`
	FetchLatency        obs.HistSnapshot `json:"fetch_latency"`
}

// OverloadStatsz is the overload section of /statsz: the controller's
// snapshot next to the server-side shed counters. Histograms appear as
// their obs.Summary here, as everywhere in /statsz (the full curves ride on
// /metrics).
type OverloadStatsz struct {
	overload.Stats
	Sheds      uint64 `json:"sheds"`
	FetchSheds uint64 `json:"shed_fetches"`
	PeerSheds  uint64 `json:"peer_sheds"`
}

// ClusterStatsz is the cluster section of /statsz.
type ClusterStatsz struct {
	Self          string                         `json:"self"`
	Members       []string                       `json:"members"`
	Forwards      uint64                         `json:"forwards"`
	PeerHits      uint64                         `json:"peer_hits"`
	PeerErrors    uint64                         `json:"peer_errors"`
	PeerFallbacks uint64                         `json:"peer_fallbacks"`
	HotHits       uint64                         `json:"hot_hits"`
	Exchanges     uint64                         `json:"exchanges"`
	ExchangedCmds uint64                         `json:"exchanged_cmds"`
	HotCache      *cluster.HotCacheStats         `json:"hot_cache,omitempty"`
	Peers         map[string]cluster.ClientStats `json:"peers"`
}

// RuntimeStatsz is the Go-runtime section of /statsz: whether the collector
// is at work on the serving path is answerable from two polls of these.
type RuntimeStatsz struct {
	GCCycles       uint64  `json:"gc_cycles"`
	GCPauseSeconds float64 `json:"gc_pause_seconds_total"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
}

func readRuntime() RuntimeStatsz {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStatsz{
		GCCycles:       uint64(ms.NumGC),
		GCPauseSeconds: float64(ms.PauseTotalNs) / 1e9,
		HeapAllocBytes: ms.HeapAlloc,
	}
}

// Statsz is the /statsz document: everything the in-band `stats` command
// reports plus the structures it cannot carry (matrices, histograms). All
// numbers are finite — "no traffic" ratios are omitted, never NaN, because
// encoding/json refuses NaN.
type Statsz struct {
	Policy   string      `json:"policy"`
	Items    int         `json:"items"`
	HitRatio *float64    `json:"hit_ratio,omitempty"`
	Engine   cache.Stats `json:"engine"`
	Server   Stats       `json:"server"`
	Slabs    []int       `json:"slabs"`

	Runtime       RuntimeStatsz          `json:"runtime"`
	Latencies     map[string]obs.Summary `json:"latencies"`
	Backend       *BackendStatsz         `json:"backend,omitempty"`
	Overload      *OverloadStatsz        `json:"overload,omitempty"`
	Cluster       *ClusterStatsz         `json:"cluster,omitempty"`
	Membership    *membership.Stats      `json:"membership,omitempty"`
	Introspection *cache.Introspection   `json:"introspection,omitempty"`

	// Tenants and Arbiter appear on a multi-tenant server (Options.Tenants
	// with an arbiter): one accounting row per tenant and the arbiter's
	// counters and move matrix.
	Tenants []tenant.Snapshot    `json:"tenants,omitempty"`
	Arbiter *tenant.ArbiterStats `json:"arbiter,omitempty"`

	// AccessBuf appears when the store runs the lock-amortized read path:
	// ring depth, drain batching, and staleness counters (see
	// cache.AccessBufStats).
	AccessBuf *cache.AccessBufStats `json:"access_buf,omitempty"`
}

// statsz assembles the document (shared by the HTTP handler and tests).
func (a *Admin) statsz() Statsz {
	st := a.srv.c.Stats()
	doc := Statsz{
		Policy:  a.srv.c.PolicyName(),
		Items:   a.srv.c.Items(),
		Engine:  st,
		Server:  a.srv.Stats(),
		Slabs:   a.srv.c.SnapshotSlabs(),
		Runtime: readRuntime(),
	}
	if st.Gets > 0 {
		hr := float64(st.Hits) / float64(st.Gets)
		if !math.IsNaN(hr) {
			doc.HitRatio = &hr
		}
	}
	if ab, ok := a.srv.c.(accessBufStatser); ok {
		if abs := ab.AccessBufStats(); abs.Enabled {
			doc.AccessBuf = &abs
		}
	}
	doc.Latencies = make(map[string]obs.Summary, numFams)
	for fam, snap := range a.srv.Latencies() {
		doc.Latencies[fam] = snap.Summary()
	}
	if b := a.srv.opts.Backend; b != nil {
		doc.Backend = &BackendStatsz{
			Fetches:             b.Fetches(),
			TotalPenaltySeconds: b.TotalPenalty(),
			InjectedErrors:      b.InjectedErrors(),
			InjectedSpikes:      b.InjectedSpikes(),
			FetchLatency:        b.FetchLatency(),
		}
	}
	ss := doc.Server
	if c := a.srv.ctrl; c != nil {
		doc.Overload = &OverloadStatsz{
			Stats:      c.Stats(),
			Sheds:      ss.Sheds,
			FetchSheds: ss.FetchSheds,
			PeerSheds:  ss.PeerSheds,
		}
	}
	if ps := a.srv.peers; ps != nil {
		cs := &ClusterStatsz{
			Self:          ps.Self(),
			Members:       ps.Members(),
			Forwards:      ss.PeerForwards,
			PeerHits:      ss.PeerHits,
			PeerErrors:    ss.PeerErrors,
			PeerFallbacks: ss.PeerFallbacks,
			HotHits:       ss.HotHits,
			Exchanges:     ss.PeerExchanges,
			ExchangedCmds: ss.PeerExchangedCmds,
			Peers:         ps.Snapshots(),
		}
		if hc, ok := a.srv.HotCacheStats(); ok {
			cs.HotCache = &hc
		}
		doc.Cluster = cs
	}
	if m := a.srv.mem; m != nil {
		ms := m.Stats()
		doc.Membership = &ms
	}
	if in, ok := a.srv.c.(introspector); ok {
		snap := in.Introspect()
		doc.Introspection = &snap
	}
	if arb := a.srv.opts.Tenants.Arbiter(); arb != nil {
		doc.Tenants = arb.Snapshots()
		ast := arb.Stats()
		doc.Arbiter = &ast
	}
	return doc
}

func (a *Admin) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a.statsz()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (a *Admin) handleSeries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/tab-separated-values")
	_ = metrics.WriteTSV(w, []*metrics.Series{a.rec.Series()})
}

// membership returns the node's membership manager, writing a 404 when
// runtime membership is not enabled (static -peers list or no cluster).
func (a *Admin) membership(w http.ResponseWriter) *membership.Manager {
	m := a.srv.mem
	if m == nil {
		http.Error(w, "runtime membership not enabled", http.StatusNotFound)
	}
	return m
}

// handleMembershipz reports the membership state machine: epoch, member
// health, probe and handoff progress counters.
func (a *Admin) handleMembershipz(w http.ResponseWriter, _ *http.Request) {
	m := a.membership(w)
	if m == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// membershipMutation runs one admin-seeded membership change (POST only).
func (a *Admin) membershipMutation(w http.ResponseWriter, r *http.Request, fn func(m *membership.Manager) error) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	m := a.membership(w)
	if m == nil {
		return
	}
	if err := fn(m); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	epoch, members := m.View()
	fmt.Fprintf(w, "ok epoch=%d members=%s\n", epoch, strings.Join(members, ","))
}

// handleMembershipAdd admits a node: POST /membership/add?addr=host:port.
func (a *Admin) handleMembershipAdd(w http.ResponseWriter, r *http.Request) {
	a.membershipMutation(w, r, func(m *membership.Manager) error {
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			return errors.New("addr parameter required")
		}
		return m.Join(addr)
	})
}

// handleMembershipRemove evicts a node: POST /membership/remove?addr=....
func (a *Admin) handleMembershipRemove(w http.ResponseWriter, r *http.Request) {
	a.membershipMutation(w, r, func(m *membership.Manager) error {
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			return errors.New("addr parameter required")
		}
		return m.Remove(addr)
	})
}

// handleMembershipDrain removes this node from the ring and streams its
// residents to the new owners. Poll /membershipz until handoff.active is
// false, then shut the process down.
func (a *Admin) handleMembershipDrain(w http.ResponseWriter, r *http.Request) {
	a.membershipMutation(w, r, func(m *membership.Manager) error {
		return m.Drain()
	})
}

// writeMembershipMetrics renders the membership state machine for Prom
// scrapes: the epoch and per-member health gauges plus probe, apply, and
// warm-handoff progress counters (the dip diagnostics: handoff seconds and
// bytes tell you how long the post-change warmth gap lasted).
func (a *Admin) writeMembershipMetrics(p *obs.PromWriter, ms membership.Stats) {
	p.Gauge("pamakv_member_epoch", "Current membership epoch.", float64(ms.Epoch))
	p.Gauge("pamakv_members", "Members in the current view.", float64(len(ms.Members)))
	draining := 0.0
	if ms.Draining {
		draining = 1.0
	}
	p.Gauge("pamakv_member_draining", "Whether this node is outside the ring, draining.", draining)
	p.Header("pamakv_member_state", "Per-member health: 0 self, 1 alive, 2 suspect.", "gauge")
	for _, m := range ms.Members {
		v := 0.0
		switch m.State {
		case membership.StateAlive:
			v = 1.0
		case membership.StateSuspect:
			v = 2.0
		}
		p.Value("pamakv_member_state", `member="`+m.Addr+`"`, v)
	}
	p.Counter("pamakv_member_applies_total", "Views applied (epoch advanced).", ms.Applies)
	p.Counter("pamakv_member_refusals_total", "Stale or conflicting views refused.", ms.Refusals)
	p.Counter("pamakv_member_joins_total", "Join proposals originated here.", ms.Joins)
	p.Counter("pamakv_member_suspects_total", "Alive-to-suspect transitions observed.", ms.Suspects)
	p.Counter("pamakv_member_evictions_total", "Auto-evictions proposed by this node.", ms.Evictions)
	p.Counter("pamakv_member_probes_total", "Health probes sent.", ms.Probes)
	p.Counter("pamakv_member_probe_failures_total", "Health probes failed.", ms.ProbeFailures)
	p.Header("pamakv_member_probe_seconds", "Health-probe round-trip latency.", "histogram")
	p.Histogram("pamakv_member_probe_seconds", "", ms.ProbeLatency)

	h := ms.Handoff
	active := 0.0
	if h.Active {
		active = 1.0
	}
	p.Gauge("pamakv_handoff_active", "Whether a warm handoff is streaming now.", active)
	p.Counter("pamakv_handoff_runs_total", "Warm-handoff runs started.", h.Runs)
	p.Counter("pamakv_handoff_keys_planned_total", "Keys scheduled for streaming.", h.KeysPlanned)
	p.Counter("pamakv_handoff_keys_total", "Keys streamed to their new owner.", h.KeysSent)
	p.Counter("pamakv_handoff_bytes_total", "Value bytes streamed to new owners.", h.BytesSent)
	p.Counter("pamakv_handoff_errors_total", "Keys whose stream attempt failed.", h.Errors)
	p.Counter("pamakv_handoff_aborts_total", "Handoff runs aborted by a newer view.", h.Aborts)
	p.Header("pamakv_handoff_seconds", "Wall-clock duration of completed handoff runs.", "histogram")
	p.Histogram("pamakv_handoff_seconds", "", h.Duration)
}
