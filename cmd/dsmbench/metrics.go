package main

// metric describes one reported quantity. The end-to-end and per-layer
// tables below are the benchmark's metric catalogue; BENCHMARK.json
// repeats their names, units and directions (a test keeps the two in
// step) and adds the regression bounds.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// layer is the module a per-layer metric belongs to; moves names the
	// end-to-end metric a change in that layer should move.
	layer, moves string
}

// endToEnd lists what a user of the simulator sees, for every workload,
// that repeats closely enough from run to run to bound a regression.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer lists the traced run's metrics. Every workload reports every
// one of them; a layer a workload does not exercise reads 0.
var perLayer = []metric{
	// A rep's wall and CPU time and its rate, from the traced run's
	// untraced reps. A user sees them, but on the 2-vCPU host they spread
	// 13-21% from run to run and drift further between sets of runs, more
	// than the 10% a timing's bound may be, so they carry no bound. An
	// "op" is one replayed trace operation for the simulator workloads
	// and one answered query for serve-mixed.
	{"run_s", "s", "lower", "rep", "none"},
	{"cpu_s", "s", "lower", "rep", "none"},
	{"ops_per_s", "1/s", "higher", "rep", "none"},

	{"apps.generate_s", "s", "lower", "apps", "setup_s"},
	{"apps.generated_ops", "count", "lower", "apps", "setup_s"},

	{"dsm.build_s", "s", "lower", "dsm", "run_s"},
	{"dsm.machines", "count", "lower", "dsm", "run_s"},
	{"dsm.execute_s", "s", "lower", "dsm", "run_s"},
	{"dsm.ops", "count", "lower", "dsm", "ops_per_s"},
	{"dsm.execute_ns_per_op", "ns", "lower", "dsm", "ops_per_s"},
	{"dsm.remote_misses", "count", "lower", "dsm", "run_s"},
	{"dsm.remote_per_kop", "1/kop", "lower", "dsm", "run_s"},
	{"dsm.cold_misses", "count", "lower", "dsm", "run_s"},
	{"dsm.coherence_misses", "count", "lower", "dsm", "run_s"},
	{"dsm.capacity_misses", "count", "lower", "dsm", "run_s"},
	{"dsm.local_misses", "count", "lower", "dsm", "run_s"},
	{"dsm.upgrades", "count", "lower", "dsm", "run_s"},
	{"dsm.page_faults", "count", "lower", "dsm", "run_s"},
	{"dsm.page_ops", "count", "lower", "dsm", "run_s"},
	{"dsm.migrations", "count", "lower", "dsm", "run_s"},
	{"dsm.replications", "count", "lower", "dsm", "run_s"},
	{"dsm.collapses", "count", "lower", "dsm", "run_s"},
	{"dsm.relocations", "count", "lower", "dsm", "run_s"},
	{"dsm.replacements", "count", "lower", "dsm", "run_s"},

	// Simulated time: model outputs that a simulator-speed change must
	// leave identical.
	{"dsm.exec_cycles", "cycles", "lower", "stats", "none"},
	{"dsm.stall_cycles", "cycles", "lower", "stats", "none"},
	{"dsm.sync_cycles", "cycles", "lower", "stats", "none"},
	{"dsm.pageop_cycles", "cycles", "lower", "stats", "none"},

	{"cache.l1_probe_ns", "ns", "lower", "cache", "run_s"},
	{"cache.block_probe_ns", "ns", "lower", "cache", "run_s"},
	{"cache.page_probe_ns", "ns", "lower", "cache", "run_s"},
	{"cache.block_cache_hits", "count", "higher", "cache", "run_s"},
	{"cache.page_cache_hits", "count", "higher", "cache", "run_s"},

	{"engine.dispatch_ns", "ns", "lower", "engine", "ops_per_s"},

	{"interconnect.traverse_ns", "ns", "lower", "interconnect", "run_s"},
	{"interconnect.traffic_bytes", "bytes", "lower", "interconnect", "run_s"},
	{"interconnect.link_bytes", "bytes", "lower", "interconnect", "run_s"},
	{"interconnect.max_link_bytes", "bytes", "lower", "interconnect", "run_s"},
	{"interconnect.bisection_bytes", "bytes", "lower", "interconnect", "run_s"},

	{"audit.check_s", "s", "lower", "audit", "cpu_s"},
	{"audit.online_s", "s", "lower", "audit", "cpu_s"},

	{"harness.experiment_s", "s", "lower", "harness", "run_s"},
	{"harness.render_s", "s", "lower", "harness", "run_s"},
	{"harness.records", "count", "lower", "harness", "run_s"},
	{"harness.self_s", "s", "lower", "harness", "run_s"},

	{"serve.hits", "count", "higher", "serve", "ops_per_s"},
	{"serve.disk_hits", "count", "higher", "serve", "ops_per_s"},
	{"serve.misses", "count", "lower", "serve", "ops_per_s"},
	{"serve.coalesced", "count", "higher", "serve", "ops_per_s"},
	{"serve.rejected", "count", "lower", "serve", "ops_per_s"},
	{"serve.hit_ms", "ms", "lower", "serve", "run_s"},
	{"serve.disk_ms", "ms", "lower", "serve", "run_s"},
	{"serve.miss_ms", "ms", "lower", "serve", "run_s"},
	{"serve.answer_us", "us", "lower", "serve", "run_s"},
	{"serve.http_overhead_us", "us", "lower", "serve", "run_s"},
	{"serve.simulate_ms", "ms", "lower", "serve", "run_s"},
	{"serve.queue_wait_ms", "ms", "lower", "serve", "run_s"},
	{"serve.qps", "1/s", "higher", "serve", "ops_per_s"},
	{"serve.warm_p50_ms", "ms", "lower", "serve", "run_s"},
	{"serve.warm_p99_ms", "ms", "lower", "serve", "run_s"},
	{"serve.cold_p50_ms", "ms", "lower", "serve", "run_s"},
	{"serve.cold_p90_ms", "ms", "lower", "serve", "run_s"},

	{"runtime.alloc_mb", "MiB", "lower", "runtime", "cpu_s"},
	{"runtime.gc_cycles", "count", "lower", "runtime", "cpu_s"},
	{"runtime.gc_pause_ms", "ms", "lower", "runtime", "cpu_s"},

	{"tracing.spans", "count", "lower", "tracing", "none"},
	{"tracing.overhead", "ratio", "lower", "tracing", "none"},

	{"host.calibration_ms", "ms", "lower", "host", "none"},
}

// metricSet returns the catalogue a run reports: per-layer when traced,
// end-to-end otherwise.
func metricSet(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
