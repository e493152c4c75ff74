package main

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before it counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. BENCHMARK.json
// repeats this table; TestBenchmarkJSONMatches keeps the two equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p95_us", "us", "lower", 0.25},
	{"goodput_qps", "1/s", "higher", 0.25},
	{"mutate_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced pass, grouped by
// the module they measure. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "xpath.parse_us_p50", Unit: "us", Better: "lower"},
	{Name: "xpath.share", Unit: "ratio", Better: "lower"},
	{Name: "pattern.minimize_us_p50", Unit: "us", Better: "lower"},
	{Name: "pattern.share", Unit: "ratio", Better: "lower"},
	{Name: "vfilter.filter_us_p50", Unit: "us", Better: "lower"},
	{Name: "vfilter.share", Unit: "ratio", Better: "lower"},
	{Name: "vfilter.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "vfilter.utility", Unit: "ratio", Better: "higher"},
	{Name: "vfilter.states", Unit: "count", Better: "lower"},
	{Name: "selection.select_us_p50", Unit: "us", Better: "lower"},
	{Name: "selection.share", Unit: "ratio", Better: "lower"},
	{Name: "selection.homs_per_query", Unit: "count", Better: "lower"},
	{Name: "selection.views_per_answer", Unit: "count", Better: "lower"},
	{Name: "selection.answerable_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "plancache.get_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "rewrite.execute_us_p50", Unit: "us", Better: "lower"},
	{Name: "rewrite.share", Unit: "ratio", Better: "lower"},
	{Name: "rewrite.refine_us_p50", Unit: "us", Better: "lower"},
	{Name: "rewrite.join_us_p50", Unit: "us", Better: "lower"},
	{Name: "rewrite.join_build_us_p50", Unit: "us", Better: "lower"},
	{Name: "rewrite.extract_us_p50", Unit: "us", Better: "lower"},
	{Name: "rewrite.plan_join_us_p50", Unit: "us", Better: "lower"},
	{Name: "rewrite.fragments_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "rewrite.fragments_joined_per_query", Unit: "count", Better: "lower"},
	{Name: "rewrite.keep_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rewrite.join_partitions_avg", Unit: "count", Better: "lower"},
	{Name: "rewrite.workers_avg", Unit: "count", Better: "lower"},
	{Name: "rewrite.gallop_hits_per_query", Unit: "count", Better: "higher"},
	{Name: "engine.bn_eval_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.bf_eval_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "views.materialize_ms_per_view", Unit: "ms", Better: "lower"},
	{Name: "views.total_kb", Unit: "KB", Better: "lower"},
	{Name: "views.bytes_per_doc_byte", Unit: "ratio", Better: "lower"},
	{Name: "views.fragments_total", Unit: "count", Better: "lower"},
	{Name: "views.skipped_over_cap", Unit: "count", Better: "lower"},
	{Name: "dewey.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "dewey.build_fst_ms", Unit: "ms", Better: "lower"},
	{Name: "xmltree.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "maintain.insert_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "maintain.delete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "maintain.share", Unit: "ratio", Better: "lower"},
	{Name: "maintain.views_checked_per_mutation", Unit: "count", Better: "lower"},
	{Name: "maintain.dirty_ratio", Unit: "ratio", Better: "lower"},
	{Name: "maintain.fragments_touched_per_mutation", Unit: "count", Better: "lower"},
	{Name: "storage.wal_put_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.wal_bytes_per_mutation", Unit: "B", Better: "lower"},
	{Name: "server.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.transport_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.share", Unit: "ratio", Better: "lower"},
	{Name: "server.response_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "server.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.pressured_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.degraded_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.p95_us_r1", Unit: "us", Better: "lower"},
	{Name: "server.p95_us_r2", Unit: "us", Better: "lower"},
	{Name: "server.p95_us_r3", Unit: "us", Better: "lower"},
	{Name: "server.max_rate_ok_rps", Unit: "1/s", Better: "higher"},
	{Name: "viewstats.calibration_err", Unit: "ratio", Better: "lower"},
	{Name: "driver.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "driver.decomp_coverage", Unit: "ratio", Better: "higher"},
	{Name: "driver.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "driver.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "driver.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "driver.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "driver.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.read_stall_max_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.sched_lag_us_p95", Unit: "us", Better: "lower"},
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values by name and fills units from the
// declaration tables, so a name that is not declared cannot be emitted.
type metricSet map[string]float64

// render returns every metric of defs, 0 for one the workload bypasses.
func (m metricSet) render(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
