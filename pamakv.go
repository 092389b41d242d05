// Package pamakv is a slab-class key-value cache library with pluggable
// memory-allocation policies, built around a from-scratch implementation of
// PAMA — the Penalty Aware Memory Allocation scheme for key-value caches
// (Ou, Patton, Moore, Xu, Jiang; ICPP 2015).
//
// A PAMA cache simultaneously weighs the three factors that determine a KV
// cache's request service time — access locality, item size, and miss
// penalty — by pricing every slab-sized chunk of every LRU stack in
// penalty-seconds per window and reallocating slabs toward the classes
// where a slab saves users the most time. The library also ships the
// baseline policies the paper compares against (original Memcached's static
// allocation, PSA and pre-PAMA) and two later ones (LAMA and CAMP),
// synthetic workload generators shaped after the Facebook Memcached traces,
// a trace format with a GET-miss→SET penalty estimator, a simulation harness
// that regenerates every figure in the paper, and a Memcached-text-protocol
// server.
//
// Quick start:
//
//	c, err := pamakv.New(pamakv.Config{CacheBytes: 64 << 20}, pamakv.NewPAMA(pamakv.DefaultPAMAConfig()))
//	if err != nil { ... }
//	c.Set("user:42", len(blob), 0.250 /* observed miss penalty, seconds */, 0, blob)
//	val, _, hit := c.Get("user:42", 0, 0, nil)
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package pamakv

import (
	"pamakv/internal/backend"
	"pamakv/internal/cache"
	"pamakv/internal/cluster"
	"pamakv/internal/core"
	"pamakv/internal/gds"
	"pamakv/internal/kv"
	"pamakv/internal/overload"
	"pamakv/internal/penalty"
	"pamakv/internal/policy"
	"pamakv/internal/server"
	"pamakv/internal/shard"
	"pamakv/internal/sim"
	"pamakv/internal/singleflight"
	"pamakv/internal/trace"
	"pamakv/internal/valuetable"
	"pamakv/internal/workload"
)

// Core cache types.
type (
	// Cache is the slab-class cache engine. Construct with New.
	Cache = cache.Cache
	// Config parameterizes the engine (geometry, size, value storage,
	// window length, segment tracker).
	Config = cache.Config
	// Stats are the engine's monotonic counters.
	Stats = cache.Stats
	// Policy is a slab-allocation scheme plugged into the engine.
	Policy = cache.Policy
	// Geometry is the slab/class size layout.
	Geometry = kv.Geometry
	// TrackerKind selects exact or Bloom-filter segment tracking.
	TrackerKind = cache.TrackerKind
	// PAMAConfig parameterizes the PAMA policy.
	PAMAConfig = core.Config
	// PenaltyModel generates deterministic per-key miss penalties.
	PenaltyModel = penalty.Model
	// WorkloadConfig parameterizes a synthetic workload generator.
	WorkloadConfig = workload.Config
	// WorkloadGenerator produces a request stream.
	WorkloadGenerator = workload.Generator
	// Request is one trace record.
	Request = trace.Request
	// TraceStream produces requests until io.EOF.
	TraceStream = trace.Stream
	// SimSpec describes one simulation experiment.
	SimSpec = sim.Spec
	// SimPolicySpec names a policy inside a SimSpec.
	SimPolicySpec = sim.PolicySpec
	// SimBurstSpec injects the paper §IV-C cold flood into a SimSpec.
	SimBurstSpec = sim.BurstSpec
	// SimResult carries a run's series and counters.
	SimResult = sim.Result
)

// Tracker kinds.
const (
	// TrackerExact computes segment attribution exactly (a segment tag on
	// every item, one boundary id per segment).
	TrackerExact = cache.TrackerExact
	// TrackerBloom uses the paper's per-segment Bloom filters.
	TrackerBloom = cache.TrackerBloom
)

// Engine errors.
var (
	// ErrTooLarge reports an item exceeding the largest class slot.
	ErrTooLarge = cache.ErrTooLarge
	// ErrNoSpace reports that no slot could be produced for the class.
	ErrNoSpace = cache.ErrNoSpace
)

// New builds a cache engine bound to a policy.
func New(cfg Config, pol Policy) (*Cache, error) { return cache.New(cfg, pol) }

// NewStaleTable returns a serve-stale table of maxBytes (keys and values):
// set it as Config.Stale of every engine of a node, which share it.
func NewStaleTable(maxBytes int64) *valuetable.Table { return valuetable.New(maxBytes, 0) }

// DefaultGeometry mirrors Memcached: 1 MiB slabs, 64 B base class, doubling
// slots, 15 classes.
func DefaultGeometry() Geometry { return kv.DefaultGeometry() }

// DefaultPAMAConfig returns the paper's configuration: m=2 reference
// segments, penalty aware, five penalty subclasses.
func DefaultPAMAConfig() PAMAConfig { return core.DefaultConfig() }

// NewPAMA returns the PAMA policy.
func NewPAMA(cfg PAMAConfig) *core.PAMA { return core.New(cfg) }

// NewPrePAMA returns the paper's pre-PAMA reference scheme (PAMA machinery,
// penalty-blind values).
func NewPrePAMA() *core.PAMA { return core.New(core.PrePAMAConfig()) }

// NewStatic returns original Memcached's static allocation.
func NewStatic() *policy.Static { return policy.NewStatic() }

// NewPSA returns periodic slab allocation with the given miss period
// (0 = 1000).
func NewPSA(m uint64) *policy.PSA { return policy.NewPSA(m) }

// NewCAMP returns the cost-adaptive multi-queue eviction policy (rounded
// cost/size ratio queues under a GreedyDual inflation clock).
func NewCAMP() *policy.CAMP { return policy.NewCAMP() }

// NewTableGeometry builds a geometry from an explicit strictly increasing
// slot-size table, e.g. one solved from a size histogram (internal/geom's
// Histogram.Solve, which -fig holes uses). An engine that stores values
// takes it only with slots in multiples of 8 bytes, the smallest at least
// 64: each slot begins with its item's record.
func NewTableGeometry(slabSize int, slots []int) (Geometry, error) {
	return kv.NewTableGeometry(slabSize, slots)
}

// MRCObjective selects what the LAMA allocator optimizes.
type MRCObjective = policy.MRCObjective

// LAMA objectives.
const (
	// ObjectiveMissRatio targets hit ratio.
	ObjectiveMissRatio = policy.ObjectiveMissRatio
	// ObjectiveAvgTime weights classes by average miss time.
	ObjectiveAvgTime = policy.ObjectiveAvgTime
)

// NewLAMA returns the full miss-ratio-curve allocator (LAMA-style shadow
// stacks + waterfilling; related work §II).
func NewLAMA(obj MRCObjective) *policy.LAMA { return policy.NewLAMA(obj) }

// DefaultPenaltyModel returns the Fig.-1-shaped miss-penalty model.
func DefaultPenaltyModel() PenaltyModel { return penalty.Default() }

// UniformPenaltyModel returns a model where every miss costs p seconds.
func UniformPenaltyModel(p float64) PenaltyModel { return penalty.Uniform(p) }

// ETCWorkload returns the generator configuration modeling the paper's ETC
// trace (general-purpose, small items, heavy skew).
func ETCWorkload() WorkloadConfig { return workload.ETC() }

// APPWorkload returns the generator configuration modeling the paper's APP
// trace (large items, many cold misses).
func APPWorkload() WorkloadConfig { return workload.APP() }

// NewWorkload builds a request generator.
func NewWorkload(cfg WorkloadConfig) (*WorkloadGenerator, error) { return workload.New(cfg) }

// RunSim executes one simulation experiment.
func RunSim(spec SimSpec) (*SimResult, error) { return sim.Run(spec) }

// RunSimMatrix executes experiments concurrently (workers <= 0 selects
// GOMAXPROCS), returning results in spec order.
func RunSimMatrix(specs []SimSpec, workers int) ([]*SimResult, error) {
	return sim.RunMatrix(specs, workers)
}

// Network service and back-end simulation.
type (
	// Server serves a cache over the Memcached ASCII protocol.
	Server = server.Server
	// ServerOptions configure a Server.
	ServerOptions = server.Options
	// ServerStore is the cache surface a Server drives (a *Cache or a
	// *ShardGroup).
	ServerStore = server.Store
	// Backend simulates the database tier a cache shields.
	Backend = backend.Store
	// BackendFaults injects deterministic fetch failures and latency
	// spikes into a Backend (Backend.SetFaults).
	BackendFaults = backend.Faults
	// ServerStats are the server-level counters (connections, error
	// classes, pipelining depth, backend retry/degradation activity) —
	// distinct from the engine-level Stats.
	ServerStats = server.Stats
	// ShardGroup is a hash-sharded set of caches.
	ShardGroup = shard.Group
	// GDSFCache is the item-granularity GreedyDual-Size-Frequency cache
	// (an alternative engine, no slabs).
	GDSFCache = gds.Cache

	// Introspection is one consistent snapshot of the engine's allocation
	// state — per-class slabs, per-subclass stack depths and hit/miss
	// attribution, the src→dst slab-move matrix, evictions and their
	// penalty by subclass, and the policy's decision counters
	// (Cache.Introspect, ShardGroup.Introspect).
	Introspection = cache.Introspection
	// PolicyDecisions are the reallocation decisions PAMA reports: in-class
	// replacements, migrations declined on price, and forced migrations.
	PolicyDecisions = cache.PolicyDecisions
	// Admin serves the observability endpoints of a Server over HTTP:
	// /metrics (Prometheus), /statsz (JSON), /healthz, and /debug/pprof.
	Admin = server.Admin
	// AdminStatsz is the /statsz document shape.
	AdminStatsz = server.Statsz
)

// NewSharded splits cfg.CacheBytes across n hash shards (rounded up to a
// power of two), each with its own policy from factory.
func NewSharded(cfg Config, n int, factory func() Policy) (*ShardGroup, error) {
	return shard.New(cfg, n, shard.PolicyFactory(factory))
}

// NewGDSF returns a GreedyDual-Size-Frequency cache bounded by capBytes.
func NewGDSF(capBytes int64, storeValues bool) (*GDSFCache, error) {
	return gds.New(capBytes, storeValues)
}

// NewServer wraps a cache or shard group (built with StoreValues: true) in
// a protocol server.
func NewServer(c ServerStore, opts ServerOptions) *Server { return server.New(c, opts) }

// NewAdmin builds the observability listener for a Server.
func NewAdmin(s *Server) *Admin { return server.NewAdmin(s) }

// NewBackend returns an accounting-mode simulated back end: Fetch reports
// each key's size, miss penalty, and synthesized value.
func NewBackend(model PenaltyModel, sizer func(keyHash uint64) int) *Backend {
	return backend.New(model, sizer)
}

// NewRealTimeBackend returns a back end whose Fetch sleeps
// penalty*scale wall-clock seconds, making miss penalties felt in demos.
func NewRealTimeBackend(model PenaltyModel, sizer func(keyHash uint64) int, scale float64) *Backend {
	return backend.NewRealTime(model, sizer, scale)
}

// ErrBackendUnavailable is returned by Backend.FetchErr for injected
// failures (BackendFaults).
var ErrBackendUnavailable = backend.ErrUnavailable

// Cluster tier: consistent-hash peer routing, pooled peer clients with
// circuit breaking, and miss deduplication.
type (
	// ClusterPeers is one node's routing table: owner selection plus a
	// pooled client per remote member (ServerOptions.Cluster).
	ClusterPeers = cluster.Peers
	// ClusterConfig describes a node's view of the cluster (self, member
	// list, client tuning, the local overload tier).
	ClusterConfig = cluster.Config
	// ClusterClientOptions tune one peer's connection pool, timeouts,
	// retries, and circuit breaker.
	ClusterClientOptions = cluster.ClientOptions
	// ClusterClientStats snapshot one peer client's counters.
	ClusterClientStats = cluster.ClientStats
	// HotCacheStats snapshot a node's hot-item mini-cache of forwarded
	// peer hits.
	HotCacheStats = valuetable.Stats
	// SingleflightGroup dedupes concurrent calls per key: one caller
	// runs, the rest share its result. A backend's misses of one key go
	// through one, so N concurrent misses cost one fetch.
	SingleflightGroup = singleflight.Group[any]
)

// NewClusterPeers validates cfg and builds a node's routing table.
func NewClusterPeers(cfg ClusterConfig) (*ClusterPeers, error) { return cluster.New(cfg) }

// Overload control: penalty-aware admission, adaptive concurrency limiting,
// and load shedding (ServerOptions.Overload).
type (
	// OverloadConfig tunes the admission controller NewOverloadController
	// builds: hard in-flight ceiling, adaptive AIMD limit vs. a latency
	// target, bounded pending queue with a sojourn cutoff, and the penalty
	// subclasses shed first under pressure.
	OverloadConfig = overload.Config
	// OverloadController is the admission controller. Build it before
	// the server and hand it over as ServerOptions.Overload, which the
	// server closes on Shutdown; give its Tier to ClusterConfig.Tier so
	// the peer clients read the same pressure tier.
	OverloadController = overload.Controller
	// OverloadStats snapshot the controller: current limit, occupancy,
	// pressure tier, and shed counts by reason and penalty subclass.
	OverloadStats = overload.Stats
)

// Pressure tiers of the overload controller, escalating from unconstrained
// service to shedding cheap reads and all writes.
const (
	TierNormal   = overload.TierNormal
	TierStrained = overload.TierStrained
	TierShedding = overload.TierShedding
	TierCritical = overload.TierCritical
)

// NewOverloadController builds an admission controller (for
// ServerOptions.Overload).
func NewOverloadController(cfg OverloadConfig) *OverloadController { return overload.New(cfg) }

// HashKey returns the 64-bit hash the engine uses for key — the argument
// backend sizers receive.
func HashKey(key string) uint64 { return kv.HashString(key) }

// KeyString encodes a numeric workload key id as the engine's 8-byte key.
func KeyString(id uint64) string { return kv.KeyString(id) }

// DefaultUnknownPenalty is the penalty assumed for keys without an
// observation (paper: 100 ms).
const DefaultUnknownPenalty = penalty.DefaultUnknown
