package main

// metricDef names one reported metric. The lists below are the
// benchmark's contract and must match BENCHMARK.json (checked by
// TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"served_rps", "1/s", "higher"},
	{"wall_p50_ms", "ms", "lower"},
	{"wall_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"served_frac", "ratio", "higher"},
	{"virtual_ttft_p50_ms", "ms", "lower"},
	{"virtual_ttft_p99_ms", "ms", "lower"},
	{"slo_attainment", "ratio", "higher"},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"workload.gen_s", "s", "lower"},

	{"sched.decide_calls", "count", "lower"},
	{"sched.decide_ns", "ns", "lower"},
	{"sched.batch_mean", "count", "higher"},
	{"sched.evicts", "count", "lower"},

	{"atmm.layertime_calls", "count", "lower"},
	{"atmm.layertime_ns", "ns", "lower"},

	{"lora.switcher_calls", "count", "lower"},
	{"lora.switcher_ns", "ns", "lower"},
	{"lora.switches", "count", "lower"},
	{"lora.swap_ins", "count", "lower"},
	{"lora.swap_gb", "GB", "lower"},
	{"lora.pool_evictions", "count", "lower"},
	{"lora.gpu_hit_rate", "ratio", "higher"},
	{"lora.swap_stall_ms", "ms", "lower"},

	{"lmm.prefix_hit_rate", "ratio", "higher"},
	{"lmm.rejected", "count", "lower"},

	{"serving.run_s", "s", "lower"},
	{"serving.iters_per_req", "ratio", "lower"},
	{"serving.dispatch_picks", "count", "lower"},
	{"serving.dispatch_ns", "ns", "lower"},
	{"serving.queue_wait_p99_ms", "ms", "lower"},
	{"serving.shed_frac", "ratio", "lower"},
	{"serving.preemptions", "count", "lower"},
	{"serving.recompute_tokens", "count", "lower"},
	{"serving.handler_p50_ms", "ms", "lower"},
	{"serving.handler_p90_ms", "ms", "lower"},
	{"serving.gen_late_p99_ms", "ms", "lower"},
	{"serving.client_p99_ms", "ms", "lower"},
	{"serving.scrape_ms", "ms", "lower"},
	{"serving.scrape_bytes", "B", "lower"},

	{"registry.host_hit_rate", "ratio", "higher"},
	{"registry.fetches", "count", "lower"},
	{"registry.prefetches", "count", "lower"},
	{"registry.fetch_gb", "GB", "lower"},
	{"registry.dedup_frac", "ratio", "higher"},
	{"registry.evictions", "count", "lower"},
	{"registry.chunk_evictions", "count", "lower"},
	{"registry.link_wait_p99_ms", "ms", "lower"},
	{"registry.cold_ttft_p99_ms", "ms", "lower"},

	{"runtime.alloc_b_per_req", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},

	{"cpu.sim", "ratio", "lower"},
	{"cpu.serving", "ratio", "lower"},
	{"cpu.sched", "ratio", "lower"},
	{"cpu.lora", "ratio", "lower"},
	{"cpu.lmm", "ratio", "lower"},
	{"cpu.atmm", "ratio", "lower"},
	{"cpu.registry", "ratio", "lower"},
	{"cpu.metrics", "ratio", "lower"},
	{"cpu.trace", "ratio", "lower"},
	{"cpu.workload", "ratio", "lower"},
	{"cpu.simgpu", "ratio", "lower"},
	{"cpu.runtime", "ratio", "lower"},
	{"cpu.net", "ratio", "lower"},
	{"cpu.encoding", "ratio", "lower"},
	{"cpu.other", "ratio", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},
}

// sampled is one reported metric value with the number of samples it
// summarizes.
type sampled struct {
	value   float64
	samples int
}

// metricSet collects a run's metric values by name.
type metricSet map[string]sampled

func (m metricSet) set(name string, v float64, samples int) { m[name] = sampled{v, samples} }
