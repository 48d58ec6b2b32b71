package main

// metricDef declares one reported metric. The lists below mirror
// BENCHMARK.json (a test keeps the two in step). Which end-to-end
// metric on which workload each per-layer metric should move is
// recorded in README.md, since BENCHMARK.json has no field for it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd is what a user of the simulator sees, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_s_per_s", Unit: "s/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// distribution expands a timing distribution into its percentile-rule
// metrics: median, supported tail, which percentile the tail is, and
// the sample count.
func distribution(base, unit string) []metricDef {
	return []metricDef{
		{Name: base + "_p50", Unit: unit, Better: "lower"},
		{Name: base + "_tail", Unit: unit, Better: "lower"},
		{Name: base + "_tail_pct", Unit: "pct", Better: "higher"},
		{Name: base + "_n", Unit: "count", Better: "higher"},
	}
}

// perLayer is reported by the traced run of every workload; a layer a
// workload does not exercise reads 0 there.
var perLayer = concat(
	distribution("core.profile_s", "s"),
	distribution("colo.run_ms", "ms"),
	distribution("cluster.barrier_us", "us"),
	[]metricDef{
		{Name: "cluster.barriers_elided", Unit: "count", Better: "higher"},
		{Name: "machine.step_ns", Unit: "ns", Better: "lower"},
		{Name: "machine.replay_ns", Unit: "ns", Better: "lower"},
		{Name: "machine.replay_share", Unit: "ratio", Better: "higher"},
		{Name: "power.solve_ns", Unit: "ns", Better: "lower"},
		{Name: "membw.arbitrate_ns", Unit: "ns", Better: "lower"},
		{Name: "llm.cost_ns", Unit: "ns", Better: "lower"},
		{Name: "cluster.failover_ns", Unit: "ns", Better: "lower"},
		{Name: "runner.dispatch_ns", Unit: "ns", Better: "lower"},
		{Name: "reqtrace.token_ns", Unit: "ns", Better: "lower"},
	},
	distribution("gateway.ttft_ms", "ms"),
	distribution("gateway.itl_ms", "ms"),
	distribution("gateway.first_token_lag_ms", "ms"),
	[]metricDef{
		{Name: "gateway.slo_ok_ratio", Unit: "ratio", Better: "higher"},
		{Name: "gateway.cpu_us_per_token", Unit: "us", Better: "lower"},
		{Name: "gateway.warp_ratio", Unit: "ratio", Better: "higher"},
		{Name: "gateway.shed", Unit: "count", Better: "lower"},
	},
	distribution("loadgen.late_ms", "ms"),
	[]metricDef{
		{Name: "runtime.alloc_mb_per_sim_s", Unit: "MB", Better: "lower"},
		{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
		{Name: "telemetry.overhead_x", Unit: "ratio", Better: "lower"},
		{Name: "span.pass_self_share", Unit: "ratio", Better: "lower"},
	},
)

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
