package main

// metricDef names one reported metric. BENCHMARK.json at the root of the
// repository lists the same metrics in the same order; a test holds the two
// together. Bound is the share of the baseline median by which an end-to-end
// metric may worsen before -compare calls it a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees, measured with tracing off.
// All of it is host time or host memory: the simulated results are covered by
// the digest checks, because they must repeat exactly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.08},
	{"sim_speed_x", "x", "higher", 0.25},
	{"interval_ms_p50", "ms", "lower", 0.25},
}

// perLayer comes from the traced run: span sums, counter deltas over the
// timed region, and probes on the workload's final state. A metric a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.warmup_s", Unit: "s", Better: "lower"},
	{Name: "core.steady_s", Unit: "s", Better: "lower"},
	{Name: "core.perf_s", Unit: "s", Better: "lower"},
	{Name: "core.paper_err_pct", Unit: "%", Better: "lower"},
	{Name: "core.runner_speedup", Unit: "x", Better: "higher"},
	{Name: "core.runner_cpu_inflation", Unit: "x", Better: "lower"},

	{Name: "workload.steady_s", Unit: "s", Better: "lower"},
	{Name: "workload.iter_us_p50", Unit: "us", Better: "lower"},
	{Name: "workload.iter_us_p95", Unit: "us", Better: "lower"},
	{Name: "jvm.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "jvm.objects_allocated", Unit: "count", Better: "lower"},
	{Name: "guestos.write_page_ns", Unit: "ns", Better: "lower"},
	{Name: "guestos.touch_ns", Unit: "ns", Better: "lower"},

	{Name: "ksm.scan_s", Unit: "s", Better: "lower"},
	{Name: "ksm.ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "ksm.interval_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "ksm.pass_ms", Unit: "ms", Better: "lower"},
	{Name: "ksm.pages_scanned", Unit: "count", Better: "lower"},
	{Name: "ksm.stable_merges", Unit: "count", Better: "higher"},
	{Name: "ksm.unstable_merges", Unit: "count", Better: "higher"},
	{Name: "ksm.checksum_skips", Unit: "count", Better: "lower"},
	{Name: "ksm.cow_breaks", Unit: "count", Better: "lower"},
	{Name: "ksm.stale_pruned", Unit: "count", Better: "lower"},
	{Name: "ksm.full_scans", Unit: "count", Better: "higher"},
	{Name: "ksm.saved_mb", Unit: "MB", Better: "higher"},
	{Name: "ksm.merges_per_kpage", Unit: "1/kpage", Better: "higher"},

	{Name: "mem.checksum_bytes_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.checksum_seed_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.fill_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.compare_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.pt_lookup_seq_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.pt_lookup_rand_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.pt_lookup_huge_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.blobs", Unit: "count", Better: "lower"},
	{Name: "mem.blob_mb", Unit: "MB", Better: "lower"},
	{Name: "mem.intern_hits", Unit: "count", Better: "higher"},
	{Name: "mem.cow_copies", Unit: "count", Better: "lower"},

	{Name: "hypervisor.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "hypervisor.touch_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "hypervisor.swapin_ns", Unit: "ns", Better: "lower"},
	{Name: "hypervisor.minor_faults", Unit: "count", Better: "lower"},
	{Name: "hypervisor.major_faults", Unit: "count", Better: "lower"},
	{Name: "hypervisor.swap_outs", Unit: "count", Better: "lower"},
	{Name: "hypervisor.cow_breaks", Unit: "count", Better: "lower"},
	{Name: "hypervisor.huge_splits", Unit: "count", Better: "lower"},
	{Name: "thp.collapses", Unit: "count", Better: "higher"},
	{Name: "thp.partial_splits", Unit: "count", Better: "lower"},
	{Name: "thp.reabsorbs", Unit: "count", Better: "higher"},

	{Name: "memanalysis.analyze_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.sys_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_k", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_sys_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.build_s", Unit: "s", Better: "lower"},
}

// workloadDef names one workload and records why it is in the set.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"paper_figs", "the six breakdown scenarios (Fig. 2/4/3b/5b/3c/5c) back to back, as a user runs them: every layer takes part, the KSM scan is about two thirds"},
	{"overcommit", "Fig. 7's cliff, 8 DayTrader guests on the 6 GB host: the only workload where the hypervisor evicts and swaps, and guest writes outweigh the scanner"},
	{"scan_idle", "a converged cluster rescanned with no guest activity: KSM, page compare and page-table lookup undiluted, where a scanner optimisation shows"},
	{"scan_churn", "the same cluster with a rotating 4 % of pages rewritten every second: writes beside reads, so a scan gain bought by taxing the write path loses here"},
	{"thp_fhpm", "the Fig. 4 scenario under fhpm and under always + KSM split: the only workload crossing huge PTEs, carve state, collapse and huge splits"},
	{"jobs_fanout", "the paper_figs scenarios through the parallel runner: same inputs, different execution, isolating the runner and the Go runtime"},
}

func workloadNamed(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
