package main

// metric declares one reported number. BENCHMARK.json repeats these
// declarations; bench_test.go keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before the driver calls a change a regression. The
	// driver compares runs across seeds, so Bound is three times the widest
	// quartile spread ten seeds showed, on any workload.
	Bound float64
	// Repeat is the same for two runs of one seed, which is what -selfcheck
	// and a claimed gain compare: host noise only.
	Repeat float64
	// sim marks a metric on the simulated clock: what the modelled system
	// did, repeating exactly for a seed. The rest are host cost, and noisy.
	sim bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the simulator sees; README.md says how
// each bound was chosen.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Repeat: 0.35},
	{Name: "ns_per_item", Unit: "ns", Better: lower, Bound: 0.25, Repeat: 0.10},
	{Name: "allocs_per_item", Unit: "count", Better: lower, Bound: 0.20, Repeat: 0.02},
	{Name: "bytes_per_item", Unit: "B", Better: lower, Bound: 0.20, Repeat: 0.02},
	{Name: "goodput_pct", Unit: "%", Better: higher, Bound: 0.01, sim: true},
	{Name: "mem_utilization_pct", Unit: "%", Better: higher, Bound: 0.25, sim: true},
	{Name: "mem_reserved_gb", Unit: "GiB", Better: lower, Bound: 0.25, sim: true},
}

// perLayer are read from the traced run. A layer a workload does not load
// reports 0.
var perLayer = []metric{
	{Name: "servegen.generate_s", Unit: "s", Better: lower},
	{Name: "servegen.generate_ns_per_request", Unit: "ns", Better: lower},
	{Name: "servegen.allocs_per_request", Unit: "count", Better: lower},
	{Name: "servegen.alloc_bytes_per_request", Unit: "B", Better: lower},

	{Name: "serve.span_s", Unit: "s", Better: lower},
	{Name: "serve.self_s", Unit: "s", Better: lower},
	{Name: "serve.self_ns_per_request", Unit: "ns", Better: lower},
	{Name: "serve.self_share_pct", Unit: "%", Better: lower},
	{Name: "serve.steps", Unit: "count", Better: lower},
	{Name: "serve.mean_batch", Unit: "count", Better: higher},
	{Name: "serve.preemptions", Unit: "count", Better: lower},
	{Name: "serve.admit_failures", Unit: "count", Better: lower},
	{Name: "serve.blocked_steps", Unit: "count", Better: lower},
	{Name: "serve.deadline_misses", Unit: "count", Better: lower},
	{Name: "serve.shed", Unit: "count", Better: lower},
	{Name: "serve.crashes", Unit: "count", Better: lower},
	{Name: "serve.retries", Unit: "count", Better: lower},
	{Name: "serve.lost", Unit: "count", Better: lower},
	{Name: "serve.stolen", Unit: "count", Better: higher},
	{Name: "serve.spawns", Unit: "count", Better: lower},
	{Name: "serve.drains", Unit: "count", Better: higher},
	{Name: "serve.peak_replicas", Unit: "count", Better: lower},
	{Name: "serve.affinity_routed", Unit: "count", Better: higher},
	{Name: "serve.assigned_imbalance_pct", Unit: "%", Better: lower},
	{Name: "serve.prefix_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.reused_tokens", Unit: "count", Better: higher},
	{Name: "serve.retained_samples", Unit: "count", Better: lower},
	{Name: "serve.sketched_samples", Unit: "count", Better: higher},
	{Name: "serve.sim_ttft_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.sim_ttft_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.sim_e2e_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.sim_makespan_s", Unit: "s", Better: lower},
	{Name: "serve.sim_replica_seconds", Unit: "s", Better: lower},
	{Name: "serve.sim_availability_pct", Unit: "%", Better: higher},

	{Name: "kv.admit_calls", Unit: "count", Better: lower},
	{Name: "kv.append_calls", Unit: "count", Better: lower},
	{Name: "kv.release_calls", Unit: "count", Better: lower},
	{Name: "kv.admit_fail_ratio", Unit: "ratio", Better: lower},
	{Name: "kv.self_s", Unit: "s", Better: lower},
	{Name: "kv.self_ns_per_call", Unit: "ns", Better: lower},
	{Name: "kv.appends_per_alloc", Unit: "ratio", Better: higher},
	{Name: "kv.mean_waste_pct", Unit: "%", Better: lower},
	{Name: "kv.peak_used_gb", Unit: "GiB", Better: lower},
	{Name: "kv.peak_logical_gb", Unit: "GiB", Better: higher},

	{Name: "memalloc.alloc_calls", Unit: "count", Better: lower},
	{Name: "memalloc.free_calls", Unit: "count", Better: lower},
	{Name: "memalloc.alloc_fail_ratio", Unit: "ratio", Better: lower},
	{Name: "memalloc.busy_s", Unit: "s", Better: lower},
	{Name: "memalloc.ns_per_call", Unit: "ns", Better: lower},
	{Name: "memalloc.busy_share_pct", Unit: "%", Better: lower},
	{Name: "memalloc.alloc_p50_ns", Unit: "ns", Better: lower},
	{Name: "memalloc.alloc_p99_ns", Unit: "ns", Better: lower},
	{Name: "memalloc.free_p50_ns", Unit: "ns", Better: lower},
	{Name: "memalloc.free_p99_ns", Unit: "ns", Better: lower},

	{Name: "core.s1_exact", Unit: "count", Better: higher},
	{Name: "core.s2_split", Unit: "count", Better: lower},
	{Name: "core.s3_stitch", Unit: "count", Better: lower},
	{Name: "core.s4_new", Unit: "count", Better: lower},
	{Name: "core.exact_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "core.stitch_frees", Unit: "count", Better: lower},
	{Name: "core.gc_runs", Unit: "count", Better: lower},
	{Name: "core.pblocks", Unit: "count", Better: lower},
	{Name: "core.sblocks", Unit: "count", Better: lower},
	{Name: "caching.segments", Unit: "count", Better: lower},
	{Name: "caching.free_blocks", Unit: "count", Better: lower},
	{Name: "cuda.vmm_calls", Unit: "count", Better: lower},
	{Name: "cuda.malloc_calls", Unit: "count", Better: lower},
	{Name: "cuda.bytes_allocated_gb", Unit: "GiB", Better: lower},

	{Name: "workload.steps", Unit: "count", Better: higher},
	{Name: "workload.self_s", Unit: "s", Better: lower},
	{Name: "workload.alloc_calls_per_step", Unit: "count", Better: lower},
	{Name: "workload.sim_step_ms", Unit: "ms", Better: lower},
	{Name: "workload.baseline_reserved_gb", Unit: "GiB", Better: lower},
	{Name: "workload.defrag_saved_gb", Unit: "GiB", Better: higher},

	{Name: "host.peak_rss_mb", Unit: "MiB", Better: lower},
	{Name: "host.gc_cycles", Unit: "count", Better: lower},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: lower},

	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "trace.empty_span_ns", Unit: "ns", Better: lower},
	{Name: "trace.spans", Unit: "count", Better: lower},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints last. encoding/json
// writes struct fields in declaration order and map keys sorted, so the line
// is byte-stable.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
