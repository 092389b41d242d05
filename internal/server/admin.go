package server

// The admin listener is the live observability surface: a second, plain-HTTP
// port (never the cache port — monitoring must not compete with the data
// path's accept queue) exposing
//
//	/metrics       Prometheus text format 0.0.4
//	/statsz        JSON superset of the in-band `stats` command
//	/healthz       liveness probe
//	/debug/pprof/  the standard Go profiler endpoints
//
// Everything here is cold-path: snapshots are taken under the engine lock
// exactly as the `stats` command takes them, and nothing is accumulated that
// the serving path does not already maintain. Windows over time are the
// poller's to cut: `pama-stats -live` takes deltas of /statsz.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"time"

	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/hugepage"
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

// Admin serves the observability endpoints for one Server. Construct with
// NewAdmin; it does not listen until Serve or ListenAndServe.
type Admin struct {
	srv *Server
	mux *http.ServeMux
	hs  *http.Server

	mu sync.Mutex
	ln net.Listener
}

// NewAdmin builds the admin surface for srv. Every endpoint is a snapshot
// taken on demand.
func NewAdmin(srv *Server) *Admin {
	a := &Admin{srv: srv, mux: http.NewServeMux()}
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	a.mux.HandleFunc("/statsz", a.handleStatsz)
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

// Close stops the listener. Safe to call more than once.
func (a *Admin) Close() error { return a.hs.Close() }

// handleMetrics renders the Prometheus exposition: the order of the sections
// and the values that are no struct's field. Every series' name, HELP and
// type come from the tags of the stats struct that carries it (package obs),
// the same structs /statsz marshals.
func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	doc := a.statsz()

	p.Struct(doc.Engine)
	p.Gauge("pamakv_items", "Resident items.", float64(doc.Items))
	// The allocation state behind the paper's Fig. 3 (slabs per class) and
	// Fig. 4 (items per penalty subclass), the attribution and slab-move
	// matrices — zero cells left out: a classes×classes matrix is mostly
	// zeros, and an absent sample reads as 0 to rate() — and the policy's
	// decision counters.
	if in := doc.Introspection; in != nil {
		p.Struct(*in)
		var holes int64
		for _, n := range in.BytesHoles {
			holes += n
		}
		p.Gauge("pamakv_holes_bytes_total", "Internal fragmentation across all classes.", float64(holes))
		if in.Decisions != nil {
			p.Struct(*in.Decisions)
		}
	}
	p.Struct(doc.Server.ConnStats)
	p.Struct(doc.Runtime)
	const requestSeconds = "pamakv_request_seconds"
	p.Header(requestSeconds, "Request latency from batch arrival to flush, by command family.", "histogram")
	for i, h := range a.srv.lat {
		p.Histogram(requestSeconds, `cmd="`+famNames[i]+`"`, h.Snapshot())
	}
	if doc.Backend != nil {
		p.Struct(*doc.Backend)
		p.Struct(doc.Server.FetchStats)
	}
	if doc.Overload != nil {
		p.Struct(*doc.Overload)
		p.Struct(doc.Server.ShedStats)
	}
	if c := doc.Cluster; c != nil {
		p.Struct(doc.Server.PeerStats)
		if c.HotCache != nil {
			p.Struct(*c.HotCache)
		}
		// One labelled series per remote peer, in address order so scrapes
		// diff cleanly.
		addrs := metrics.SortedNames(c.Peers)
		peers := make([]cluster.ClientStats, len(addrs))
		for i, addr := range addrs {
			peers[i] = c.Peers[addr]
		}
		p.Rows("peer", addrs, peers)
	}
	// Slab moves between tenants are the observable core of arbitration:
	// the in/out counters and the donor→receiver matrix show memory flowing
	// toward the needier tenant.
	if arb := doc.Arbiter; arb != nil {
		names := make([]string, len(doc.Tenants))
		for i, t := range doc.Tenants {
			names[i] = t.Name
		}
		p.Rows("tenant", names, doc.Tenants)
		p.Struct(*arb)
		const slabMoves = "pamakv_tenant_slab_moves_total"
		p.Header(slabMoves, "Slabs moved by donor and receiver tenant.", "counter")
		for d, row := range arb.Matrix {
			for r, n := range row {
				if n != 0 {
					p.Value(slabMoves, `donor="`+arb.Members[d].Name+`",receiver="`+arb.Members[r].Name+`"`, float64(n))
				}
			}
		}
	}
	if ms := doc.Membership; ms != nil {
		p.Struct(*ms)
		p.Gauge("pamakv_members", "Members in the current view.", float64(len(ms.Members)))
		const memberState = "pamakv_member_state"
		p.Header(memberState, "Per-member health: 0 self, 1 alive, 2 suspect.", "gauge")
		state := map[string]float64{membership.StateAlive: 1, membership.StateSuspect: 2}
		for _, m := range ms.Members {
			p.Value(memberState, `member="`+m.Addr+`"`, state[m.State])
		}
		p.Struct(ms.Handoff)
	}
	_ = p.Err() // the peer hung up; nothing to do
}

// BackendStatsz is the backend section of /statsz.
type BackendStatsz struct {
	Fetches             uint64           `json:"fetches" prom:"pamakv_backend_fetches_total" help:"Backend fetches (read-through misses)."`
	FetchLatency        obs.HistSnapshot `json:"fetch_latency" prom:"pamakv_backend_fetch_seconds" help:"Wall-clock backend fetch latency."`
	TotalPenaltySeconds float64          `json:"total_penalty_seconds" prom:"pamakv_backend_penalty_seconds_total" help:"Accumulated simulated miss penalty."`
	InjectedErrors      uint64           `json:"injected_errors"`
	InjectedSpikes      uint64           `json:"injected_spikes"`
}

// ClusterStatsz is the cluster section of /statsz: the routing table, the
// hot cache and the peer clients. The server's forwarding counters are in
// the server section.
type ClusterStatsz struct {
	Self     string                         `json:"self"`
	Members  []string                       `json:"members"`
	HotCache *cluster.HotCacheStats         `json:"hot_cache,omitempty"`
	Peers    map[string]cluster.ClientStats `json:"peers"`
}

// RuntimeStatsz is the Go-runtime section of /statsz: whether the collector
// is at work on the serving path is answerable from two polls of these, and
// whether the heap is on huge pages from one.
type RuntimeStatsz struct {
	GCCycles          uint64  `json:"gc_cycles" prom:"pamakv_go_gc_cycles_total" help:"Completed Go garbage-collection cycles."`
	GCPauseSeconds    float64 `json:"gc_pause_seconds_total" prom:"pamakv_go_gc_pause_seconds_total" help:"Cumulative stop-the-world GC pause time."`
	HeapAllocBytes    uint64  `json:"heap_alloc_bytes" prom:"pamakv_go_heap_alloc_bytes" help:"Bytes of live and not-yet-swept Go heap objects."`
	HeapInuseBytes    uint64  `json:"heap_inuse_bytes" prom:"pamakv_go_heap_inuse_bytes" help:"Bytes in in-use Go heap spans (value pages live outside the heap: introspection's value_slab_bytes)."`
	AnonHugePageBytes uint64  `json:"anon_hugepage_bytes" prom:"pamakv_process_anon_hugepage_bytes" help:"Anonymous memory of the process mapped by transparent huge pages (0 off Linux)."`
}

func readRuntime() RuntimeStatsz {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStatsz{
		GCCycles:          uint64(ms.NumGC),
		GCPauseSeconds:    float64(ms.PauseTotalNs) / 1e9,
		HeapAllocBytes:    ms.HeapAlloc,
		HeapInuseBytes:    ms.HeapInuse,
		AnonHugePageBytes: hugepage.AnonBytes(),
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
	Overload      *overload.Stats        `json:"overload,omitempty"`
	Cluster       *ClusterStatsz         `json:"cluster,omitempty"`
	Membership    *membership.Stats      `json:"membership,omitempty"`
	Introspection *cache.Introspection   `json:"introspection,omitempty"`

	// Tenants and Arbiter appear on a multi-tenant server (Options.Tenants
	// with an arbiter): one accounting row per tenant and the arbiter's
	// counters and move matrix.
	Tenants []tenant.Snapshot    `json:"tenants,omitempty"`
	Arbiter *tenant.ArbiterStats `json:"arbiter,omitempty"`
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
	if c := a.srv.ctrl; c != nil {
		ost := c.Stats()
		doc.Overload = &ost
	}
	if ps := a.srv.peers; ps != nil {
		cs := &ClusterStatsz{Self: ps.Self(), Members: ps.Members(), Peers: ps.Snapshots()}
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
