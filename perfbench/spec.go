package main

// metricDef names one reported metric. The lists below are the benchmark's
// metric dictionary; BENCHMARK.json repeats them for the driver, and
// TestSpecMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one entry of BENCHMARK.json's "workloads".
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds.
const runSeconds = 16

var workloads = []workloadDef{
	{"serve_hot", "point statements through the daemon, plan-cache hits: per-request fixed cost (wire, queue, parse, cache lookup) dominates"},
	{"serve_wide", "range scans and a join returning hundreds of rows through the daemon: per-row cost (render, JSON encode, decode) dominates"},
	{"tune_offline", "the paper's offline policy in-process: MNSA loop, uncached optimizer calls and statistic builds dominate; wire and plan cache idle"},
	{"churn_onfly", "on-the-fly policy with half DML in-process: storage writes, statistic refresh and a plan cache invalidated on every write"},
}

// endToEnd metrics are printed by every workload with -trace 0. One
// operation is a request (serve_*), a tune round (tune_offline) or a
// statement (churn_onfly). Bounds are relative to the parent's median.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer metrics are printed by every workload with -trace 1. Names are
// <module>.<metric>. Every timing is measured on every workload, over that
// workload's own statements; counts that a workload does not exercise are 0.
var perLayer = []metricDef{
	// The wire path, from the traced single-connection replay.
	{"client.roundtrip_us_p50", "us", "lower", 0},
	{"server.residual_us_p50", "us", "lower", 0},
	{"server.op_exec_us_mean", "us", "lower", 0},
	{"server.queue_depth_max", "count", "lower", 0},
	{"server.rejected_share", "ratio", "lower", 0},
	{"protocol.encode_req_us_p50", "us", "lower", 0},
	{"protocol.encode_resp_us_p50", "us", "lower", 0},
	{"protocol.decode_resp_us_p50", "us", "lower", 0},
	{"protocol.resp_bytes_p50", "B", "lower", 0},
	{"protocol.resp_bytes_per_row", "B", "lower", 0},
	{"protocol.encode_resp_allocs", "count", "lower", 0},
	{"facade.exec_us_p50", "us", "lower", 0},
	{"facade.render_us_p50", "us", "lower", 0},
	{"trace.per_row_share", "ratio", "lower", 0},
	{"trace.coverage_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// The open-loop ladder (serve_*) or one low-rate step (in-process).
	{"loadgen.rate_at_slo_rps", "1/s", "higher", 0},
	{"loadgen.within_slo_share_r1", "ratio", "higher", 0},
	{"loadgen.within_slo_share_r2", "ratio", "higher", 0},
	{"loadgen.within_slo_share_r3", "ratio", "higher", 0},
	{"loadgen.within_slo_share_r4", "ratio", "higher", 0},
	{"loadgen.within_slo_share_r5", "ratio", "higher", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	// Statement path layers, called directly.
	{"sqlparser.parse_us_p50", "us", "lower", 0},
	{"sqlparser.parse_allocs", "count", "lower", 0},
	{"optimizer.hit_us_p50", "us", "lower", 0},
	{"optimizer.hit_allocs", "count", "lower", 0},
	{"optimizer.plancache_hit_rate", "ratio", "higher", 0},
	{"optimizer.miss_us_p50", "us", "lower", 0},
	{"optimizer.miss_us_p95", "us", "lower", 0},
	{"optimizer.miss_allocs", "count", "lower", 0},
	{"histogram.selectivity_ns", "ns", "lower", 0},
	{"executor.run_us_p50", "us", "lower", 0},
	{"executor.rows_per_op", "count", "lower", 0},
	{"executor.cost_units_per_op", "count", "lower", 0},
	{"executor.run_allocs", "count", "lower", 0},
	// Statistics selection and construction.
	{"core.mnsa_s", "s", "lower", 0},
	{"core.shrink_s", "s", "lower", 0},
	{"core.optimizer_calls", "count", "lower", 0},
	{"core.stats_created", "count", "lower", 0},
	{"core.essential_size", "count", "lower", 0},
	{"stats.build_s_total", "s", "lower", 0},
	{"stats.build_ms_p50", "ms", "lower", 0},
	{"stats.build_cost_units", "count", "lower", 0},
	{"storage.extract_ms_total", "ms", "lower", 0},
	{"histogram.build_ms_total", "ms", "lower", 0},
	{"histogram.partial_merge_ms_total", "ms", "lower", 0},
	{"histogram.stream_ms_total", "ms", "lower", 0},
	{"histogram.fold_us_per_row", "us", "lower", 0},
	// The on-the-fly policy and maintenance.
	{"core.select_us_p50", "us", "lower", 0},
	{"core.dml_us_p50", "us", "lower", 0},
	{"core.mnsa_runs", "count", "lower", 0},
	{"storage.dml_us_p50", "us", "lower", 0},
	{"stats.maintenance_ms_total", "ms", "lower", 0},
	{"stats.refreshes", "count", "lower", 0},
	{"stats.full_scans", "count", "lower", 0},
	// Plan quality (tune_offline; paper Figures 3 and 4, Datta et al.).
	{"core.exec_cost_increase_pct", "%", "lower", 0},
	{"core.creation_cost_reduction_pct", "%", "higher", 0},
	{"optimizer.nostats_cost_increase_pct", "%", "higher", 0},
	{"optimizer.root_qerror_p50", "ratio", "lower", 0},
	{"optimizer.root_qerror_p95", "ratio", "lower", 0},
}

// exactMetrics repeat exactly for one seed; the determinism test and
// -compare treat any difference in them as a change of behaviour.
var exactMetrics = []string{
	"core.optimizer_calls", "core.stats_created", "core.essential_size",
	"core.exec_cost_increase_pct", "core.creation_cost_reduction_pct",
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
