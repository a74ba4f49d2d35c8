package main

// metricDef names one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json repeats them (a test keeps the two in step), an
// untraced run reports every endToEnd metric and a traced run every
// perLayer one.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are host-side numbers a user of the simulator sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_uops_per_s", "1/s", "higher"},
	{"covered_uops_per_s", "1/s", "higher"},
	{"case_p50_ms", "ms", "lower"},
	{"case_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// sampledKernels are the sampled-long kernels; their per-kernel metrics are
// listed in perLayer.
var sampledKernels = []string{"lbm", "astar"}

// perLayer metrics come from the traced run. A layer the workload does not
// drive reports 0 (see README.md, "Per-layer metrics").
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"setup.build_ms_p50", "ms", "lower"},
		{"setup.build_ms_max", "ms", "lower"},
		{"setup.core_new_ms", "ms", "lower"},
		{"setup.warmer_new_ms", "ms", "lower"},

		{"core.ns_per_cycle", "ns", "lower"},
		{"core.ns_per_uop", "ns", "lower"},
		{"core.cycles_per_call", "cycles", "higher"},
		{"core.allocs_per_kcycle", "allocs", "lower"},
	}
	for _, st := range stageNames {
		defs = append(defs, metricDef{"core.stage." + st + ".cpu_share", "frac", "lower"})
	}
	defs = append(defs,
		metricDef{"harness.overhead_frac", "frac", "lower"},

		metricDef{"emu.ns_per_uop", "ns", "lower"},
		metricDef{"emu.written_words", "count", "lower"},
		metricDef{"emu.clone_ms_p50", "ms", "lower"},
		metricDef{"emu.clone_ms_last", "ms", "lower"},

		metricDef{"warm.ns_per_uop", "ns", "lower"},
		metricDef{"branch.ns_per_branch", "ns", "lower"},
		metricDef{"mem.warmload_ns", "ns", "lower"},
	)
	for _, k := range sampledKernels {
		p := "sample." + k + "."
		defs = append(defs,
			metricDef{p + "ff_share", "frac", "lower"},
			metricDef{p + "clone_share", "frac", "lower"},
			metricDef{p + "interval_share", "frac", "lower"},
			metricDef{p + "intervals", "count", "higher"},
			metricDef{p + "clone_ms_p50", "ms", "lower"},
			metricDef{p + "clone_ms_last", "ms", "lower"},
			metricDef{p + "written_words", "count", "lower"},
			metricDef{p + "unaccounted_frac", "frac", "lower"},
			metricDef{p + "ipc_ci_halfwidth_pct", "%", "lower"},
		)
	}
	defs = append(defs,
		metricDef{"store.get_ms", "ms", "lower"},
		metricDef{"store.put_ms", "ms", "lower"},
		metricDef{"store.journal_append_ms", "ms", "lower"},
		metricDef{"store.hits", "count", "higher"},
		metricDef{"store.misses", "count", "lower"},

		metricDef{"sweepd.roundtrip_overhead_ms", "ms", "lower"},
		metricDef{"sweepd.spawn_ms", "ms", "lower"},
		metricDef{"sweepd.dispatches", "count", "lower"},
		metricDef{"sweepd.spawns", "count", "lower"},
		metricDef{"sweepd.deaths", "count", "lower"},
		metricDef{"sweepd.stalls", "count", "lower"},
		metricDef{"sweepd.retries", "count", "lower"},

		metricDef{"sweep.cold_job_s", "s", "lower"},
		metricDef{"sweep.warm_job_s", "s", "lower"},
		metricDef{"sweep.inproc_cold_s", "s", "lower"},
		metricDef{"sweep.inproc_warm_s", "s", "lower"},
		metricDef{"sweep.warm_case_p50_ms", "ms", "lower"},
		metricDef{"sweep.warm_case_tail_ms", "ms", "lower"},
	)
	for _, v := range frontVariants {
		defs = append(defs, metricDef{"front." + v.name + ".ns_per_uop", "ns", "lower"})
	}
	defs = append(defs,
		metricDef{"model.ipc", "uops/cycle", "higher"},
		metricDef{"model.mlp", "misses", "higher"},
		metricDef{"model.llc_mpki", "miss/kuop", "lower"},
		metricDef{"model.branch_mpki", "miss/kuop", "lower"},
		metricDef{"model.full_window_stall_frac", "frac", "lower"},
		metricDef{"model.cdf_mode_frac", "frac", "higher"},
		metricDef{"model.dependence_violations", "count", "lower"},
		metricDef{"model.prefetch_accuracy", "frac", "higher"},
		metricDef{"model.l1i_mpki", "miss/kuop", "lower"},
		metricDef{"model.fetch_stall_imiss_per_kuop", "cycles/kuop", "lower"},
		metricDef{"model.fetch_stall_btb_per_kuop", "cycles/kuop", "lower"},
		metricDef{"model.fetch_stall_redirect_per_kuop", "cycles/kuop", "lower"},
		metricDef{"model.l1i_prefetch_accuracy", "frac", "higher"},
		metricDef{"model.l1i_prefetch_late_frac", "frac", "lower"},
		metricDef{"model.shadow_btb_hit_rate", "frac", "higher"},
		metricDef{"model.ftq_avg_occupancy", "entries", "higher"},
		metricDef{"model.cdf_geomean_pct", "%", "higher"},
		metricDef{"model.pre_geomean_pct", "%", "higher"},

		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
		metricDef{"trace.spans", "count", "lower"},
	)
	return defs
}()
