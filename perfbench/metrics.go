package main

import "dvsim/internal/core"

// metricDef is one metric of BENCHMARK.json. TestBenchmarkJSON keeps
// the two lists below and the committed file in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics of an untraced run. Every workload
// reports every one of them; what "an operation" is differs per
// workload and is spelled out in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics. Every traced run reports all
// of them; a layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Workload figures by their own names, from the untraced passes
		// of the traced run.
		{"sim_events_per_s", "1/s", "higher", 0},
		{"allocs_per_event", "count", "lower", 0},
		{"records_per_s", "1/s", "higher", 0},
		{"lines_per_s", "1/s", "higher", 0},
		{"hit_p50_ms", "ms", "lower", 0},
		{"hit_p99_ms", "ms", "lower", 0},
		{"hit_max_rps", "1/s", "higher", 0},
		{"miss_p50_ms", "ms", "lower", 0},
		{"miss_p90_ms", "ms", "lower", 0},
		{"error_rate", "ratio", "lower", 0},
		// Exact simulated-statistics counters of one pass.
		{"sim.events", "count", "lower", 0},
		{"serial.transfers", "count", "lower", 0},
		{"serial.retries", "count", "lower", 0},
		{"serial.useful_ratio", "ratio", "higher", 0},
		{"node.frames", "count", "higher", 0},
		{"fault.drops", "count", "lower", 0},
		{"fault.garbles", "count", "lower", 0},
		{"telemetry.records", "count", "lower", 0},
		{"telemetry.bytes_per_record", "B", "lower", 0},
		{"manifest.lines", "count", "higher", 0},
		// The ladder: single-layer rungs built from public APIs.
		{"sim.dispatch_ns", "ns", "lower", 0},
		{"sim.handoff_ns", "ns", "lower", 0},
		{"serial.rendezvous_ns.q1", "ns", "lower", 0},
		{"serial.rendezvous_ns.q16", "ns", "lower", 0},
		{"node.power_transition_ns", "ns", "lower", 0},
		{"battery.drain_ns", "ns", "lower", 0},
		{"core.setup_us", "us", "lower", 0},
		{"core.allocs_per_run", "count", "lower", 0},
		{"telemetry.encode_ns_per_record", "ns", "lower", 0},
		{"governor.decide_ns", "ns", "lower", 0},
		{"topology.build_us", "us", "lower", 0},
		{"manifest.parse_ms", "ms", "lower", 0},
		{"manifest.expand_ms", "ms", "lower", 0},
		{"manifest.key_us", "us", "lower", 0},
		{"service.cache_get_us.small", "us", "lower", 0},
		{"service.cache_get_us.large", "us", "lower", 0},
		{"service.cache_get_us.during_put", "us", "lower", 0},
	}
	// Spans around the workload's own calls.
	for _, id := range core.AllExperiments {
		defs = append(defs, metricDef{"core.run_ns_per_event." + string(id), "ns", "lower", 0})
	}
	defs = append(defs,
		metricDef{"core.recorder_ns_per_record", "ns", "lower", 0},
		metricDef{"telemetry.sink_share", "ratio", "lower", 0},
		metricDef{"fleet.run_ns_per_event.chain", "ns", "lower", 0},
		metricDef{"fleet.run_ns_per_event.tree", "ns", "lower", 0},
		metricDef{"fleet.run_ns_per_event.mesh", "ns", "lower", 0},
		metricDef{"sweep.busy_ratio", "ratio", "higher", 0},
		metricDef{"service.hit_ttfb_ms", "ms", "lower", 0},
		metricDef{"service.miss_ttfb_ms", "ms", "lower", 0},
		metricDef{"service.queue_depth_max", "count", "lower", 0},
		metricDef{"service.hits", "count", "higher", 0},
		metricDef{"service.misses", "count", "lower", 0},
		metricDef{"service.puts", "count", "lower", 0},
		metricDef{"service.rejected", "count", "lower", 0},
		metricDef{"service.runs_failed", "count", "lower", 0},
		metricDef{"trace.overhead_ratio", "ratio", "lower", 0},
	)
	return defs
}()
