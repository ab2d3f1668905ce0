package main

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// root of the repository lists the same names, units and bounds; the smoke
// test holds the two together.
type metricDef struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // end-to-end only: share of the base by which it may worsen
}

// endToEnd are the metrics a user of the program sees, the same on every
// workload. Each bound is three times the widest spread between seeds seen on
// the 2-processor probe host, or the most the driver allows (README.md has
// the measurements): every run draws new alignments, and the host's own speed
// wanders by more than the inputs differ.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", lower: true, bound: 0.25},
	{name: "cpu_s", unit: "s", lower: true, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", lower: true, bound: 0.2},
	{name: "setup_s", unit: "s", lower: true, bound: 0.25},
}

// perLayer are the metrics of single layers, read from the traced pass. A
// metric of a layer that does nothing on a workload reads 0 there.
var perLayer = []metricDef{
	{name: "alignment.parse_ms", unit: "ms", lower: true},
	{name: "alignment.compress_ms", unit: "ms", lower: true},
	{name: "alignment.patterns", unit: "count", lower: true},
	{name: "alignment.bootstrap_replicate_us", unit: "us", lower: true},
	{name: "parsimony.start_tree_ms", unit: "ms", lower: true},

	{name: "likelihood.newview_calls", unit: "count", lower: true},
	{name: "likelihood.makenewz_calls", unit: "count", lower: true},
	{name: "likelihood.evaluate_calls", unit: "count", lower: true},
	{name: "likelihood.newton_iters", unit: "count", lower: true},
	{name: "likelihood.flops", unit: "count", lower: true},
	{name: "likelihood.bytes_streamed_computed", unit: "B", lower: true},
	{name: "likelihood.cache_hits", unit: "count"},
	{name: "likelihood.shared_hits", unit: "count"},
	{name: "likelihood.newview_busy_s", unit: "s", lower: true},
	{name: "likelihood.makenewz_busy_s", unit: "s", lower: true},
	{name: "likelihood.evaluate_busy_s", unit: "s", lower: true},
	{name: "likelihood.kernel_share", unit: "ratio"},
	{name: "likelihood.newviews_per_makenewz", unit: "ratio", lower: true},
	{name: "likelihood.scalar.newview_ns_per_pattern", unit: "ns", lower: true},
	{name: "likelihood.scalar.makenewz_ns_per_pattern", unit: "ns", lower: true},
	{name: "likelihood.scalar.evaluate_ns_per_pattern", unit: "ns", lower: true},
	{name: "likelihood.scalar.gflops", unit: "GFLOP/s"},
	{name: "likelihood.batched.newview_ns_per_pattern", unit: "ns", lower: true},
	{name: "likelihood.batched.makenewz_ns_per_pattern", unit: "ns", lower: true},
	{name: "likelihood.batched.evaluate_ns_per_pattern", unit: "ns", lower: true},
	{name: "likelihood.batched.gflops", unit: "GFLOP/s"},
	{name: "likelihood.flops_per_byte_computed", unit: "ratio"},

	{name: "search.rounds", unit: "count", lower: true},
	{name: "search.moves", unit: "count", lower: true},
	{name: "search.round_ms_median", unit: "ms", lower: true},
	{name: "search.smooth_ms", unit: "ms", lower: true},
	{name: "search.alpha_opt_ms", unit: "ms", lower: true},
	{name: "search.self_s", unit: "s", lower: true},
	{name: "search.self_share", unit: "ratio", lower: true},
	{name: "search.candidates_scored", unit: "count", lower: true},
	{name: "search.topo_memo_hits", unit: "count"},
	{name: "search.candidates_per_s", unit: "1/s"},
	{name: "search.pool_speedup", unit: "ratio"},
	{name: "search.pool_newview_ratio", unit: "ratio", lower: true},
	{name: "search.pool_cpu_ratio", unit: "ratio", lower: true},

	{name: "mw.jobs", unit: "count"},
	{name: "mw.attempts", unit: "count", lower: true},
	{name: "mw.retries", unit: "count", lower: true},
	{name: "mw.replay_work_s", unit: "s", lower: true},
	{name: "mw.overhead_s", unit: "s", lower: true},
	{name: "mw.checkpoint_bytes", unit: "B", lower: true},
	{name: "mw.checkpoint_load_ms", unit: "ms", lower: true},
	{name: "mw.resume_ms", unit: "ms", lower: true},

	{name: "phylotree.consensus_ms", unit: "ms", lower: true},
	{name: "phylotree.distinct_topologies", unit: "count"},
	{name: "phylotree.newick_roundtrip_us", unit: "us", lower: true},

	{name: "core.cpu_utilisation", unit: "ratio"},
	{name: "core.alloc_mb", unit: "MB", lower: true},
	{name: "core.gc_cpu_share", unit: "ratio", lower: true},
	{name: "core.unattributed_share", unit: "ratio", lower: true},

	{name: "obs.tracing_overhead", unit: "ratio", lower: true},
	{name: "obs.instrumented_ratio", unit: "ratio", lower: true},
}
