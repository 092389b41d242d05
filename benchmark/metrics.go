package main

// The metric tables. BENCHMARK.json at the repository root lists the same
// names, units, directions and bounds; TestManifestMatchesTables keeps the
// two from drifting apart.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the cache sees. Every workload reports all of
// them, from the outside-in run with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.20},
	{"server_cpu_us_per_op", "us", "lower", 0.20},
	{"rtt_p50_us", "us", "lower", 0.20},
	{"hit_ratio", "share", "higher", 0.10},
	{"service_ms_per_get", "ms", "lower", 0.20},
	{"rss_peak_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by the traced run (--trace 1). Layer names are the
// internal/ package names; trace.* and loadgen.* describe the benchmark
// itself.
var perLayer = []metricDef{
	// proto: standalone, over the workload's own requests and replies.
	{Name: "proto.parse_get_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.parse_set_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.encode_value_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.resp_read_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.parse_allocs_per_cmd", Unit: "count", Better: "lower"},
	// server: spans of the in-process run and the child's own counters.
	{Name: "server.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.mean_batch_depth", Unit: "ops", Better: "higher"},
	{Name: "server.lat_get_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.lat_set_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.errors", Unit: "count", Better: "lower"},
	// shard and cache: spans around server.Store, and direct calls.
	{Name: "shard.span_get_us", Unit: "us", Better: "lower"},
	{Name: "shard.span_set_us", Unit: "us", Better: "lower"},
	{Name: "shard.span_delete_us", Unit: "us", Better: "lower"},
	{Name: "shard.get_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.get_par_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.hot_shard_get_par_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.allocs_per_get", Unit: "count", Better: "lower"},
	{Name: "cache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.set_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.set_evict_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.allocs_per_set", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "cache.evictions_per_kset", Unit: "count", Better: "lower"},
	{Name: "cache.ghost_hit_share", Unit: "share", Better: "lower"},
	{Name: "cache.hole_share", Unit: "share", Better: "lower"},
	{Name: "cache.items_resident", Unit: "count", Better: "higher"},
	// accessbuf
	{Name: "accessbuf.push_ns", Unit: "ns", Better: "lower"},
	{Name: "accessbuf.records_per_drain", Unit: "count", Better: "higher"},
	{Name: "accessbuf.full_drain_share", Unit: "share", Better: "lower"},
	{Name: "accessbuf.lock_wait_us_per_kop", Unit: "us", Better: "lower"},
	{Name: "accessbuf.stale_refs", Unit: "count", Better: "lower"},
	// core: spans around cache.Policy, and the child's counters.
	{Name: "core.make_room_ns", Unit: "ns", Better: "lower"},
	{Name: "core.make_room_calls_per_kset", Unit: "count", Better: "lower"},
	{Name: "core.record_batch_ns_per_hit", Unit: "ns", Better: "lower"},
	{Name: "core.on_window_us", Unit: "us", Better: "lower"},
	{Name: "core.share_of_store_time", Unit: "share", Better: "lower"},
	{Name: "core.slab_migrations_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.window_rollovers", Unit: "count", Better: "lower"},
	// segment: engine GET hit under each tracker.
	{Name: "segment.exact_ns_per_get", Unit: "ns", Better: "lower"},
	{Name: "segment.bloom_ns_per_get", Unit: "ns", Better: "lower"},
	{Name: "segment.off_ns_per_get", Unit: "ns", Better: "lower"},
	// backend
	{Name: "backend.fetch_us", Unit: "us", Better: "lower"},
	{Name: "backend.fetches_per_kget", Unit: "count", Better: "lower"},
	{Name: "backend.penalty_ms_per_get", Unit: "ms", Better: "lower"},
	// cluster
	{Name: "cluster.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.hop_us", Unit: "us", Better: "lower"},
	{Name: "cluster.remote_share", Unit: "share", Better: "lower"},
	{Name: "cluster.forward_share", Unit: "share", Better: "lower"},
	{Name: "cluster.hot_hit_share", Unit: "share", Better: "higher"},
	{Name: "cluster.peer_errors", Unit: "count", Better: "lower"},
	{Name: "cluster.peer_cpu_us_per_op", Unit: "us", Better: "lower"},
	// client: internal/client against the live child.
	{Name: "client.get_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.pipeline_ns_per_op", Unit: "ns", Better: "lower"},
	// The benchmark itself.
	{Name: "loadgen.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "loadgen.gen_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.ops_per_s_mean", Unit: "ops/s", Better: "higher"},
	{Name: "loadgen.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.ops_per_s_raw", Unit: "ops/s", Better: "higher"},
	{Name: "loadgen.host_speed", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.host_cpu_speed", Unit: "ratio", Better: "higher"},
	{Name: "trace.request_us", Unit: "us", Better: "lower"},
	{Name: "trace.self_sum_share", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}
