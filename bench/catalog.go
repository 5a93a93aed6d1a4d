package main

// The catalogue is the single definition of what this benchmark measures:
// the workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics of the traced run. BENCHMARK.json at the repository
// root repeats it for the driver; bench_test.go fails when the two differ.

// metricDef names one metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlColdScan  = "cold_scan"
	wlHitFrame  = "hit_large_frame"
	wlSessionJS = "session_mix_json"
	wlTenants   = "tenants_concurrent"
)

// runSeconds is how long the timed phase of one run lasts when the driver
// does not say otherwise; BENCHMARK.json freezes the same number.
const runSeconds = 24

var workloads = []workloadDef{
	{wlColdScan, "128^3 whole-domain derived-field scans with the cache dropped before each op: store, field, derived and node do all the work; wire and sched are absent"},
	{wlHitFrame, "large results served from warm caches over loopback frames behind the scheduler: cache lookup, wire codecs, mediator merge and the sched window do all the work; no scan runs"},
	{wlSessionJS, "the paper's structured revisit stream over default JSON daemons with a cache too small for the hot set: p50 is a hit, p95 a miss, with stores, evictions, PDF and top-k"},
	{wlTenants, "8 in-process callers from 4 tenants with no cache behind the scheduler: every query scans, so gains come only from admission and shared-scan batching"},
}

// endToEnd are measured with tracing off, the same set on every workload.
// failed_ratio is reported by every run too, but as the result's own
// failed/attempted pair: it is 0 on a healthy tree, and a metric that reads
// 0 has no relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// opClasses are the (field, order) classes the node-level metrics split by;
// a workload reports 0 for a class it never issues.
var opClasses = []string{"vorticity_o4", "current_o4", "qcriterion_o4", "vorticity_o8", "velocity"}

// perLayer are measured by the traced run only. A metric whose layer a
// workload bypasses reads 0 there (wire on the in-process workloads, the
// store on the all-hit workload, ...).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	ms := []metricDef{
		lo("store.read_ns_per_atom", "ns"),
		lo("store.read_bytes_per_query", "B"),
		lo("store.atoms_read_per_query", "count"),
		lo("store.ingest_s", "s"),
		lo("synth.generate_s", "s"),
		lo("field.decode_ns_per_point", "ns"),
		lo("field.assemble_ns_per_point.o4", "ns"),
		lo("field.assemble_ns_per_point.o8", "ns"),
		lo("field.assemble_amplification.o4", "ratio"),
		lo("field.assemble_amplification.o8", "ratio"),
	}
	for _, c := range opClasses {
		ms = append(ms, lo("derived.normrow_ns_per_point."+c, "ns"))
	}
	for _, c := range opClasses {
		ms = append(ms, lo("node.cold_ms_p50."+c, "ms"))
	}
	ms = append(ms,
		lo("node.hit_ms_p50", "ms"),
		lo("node.io_share", "ratio"),
		lo("node.compute_share", "ratio"),
		lo("node.cache_update_share", "ratio"),
		lo("node.scan_ns_per_point", "ns"),
		lo("node.scan_over_kernel.vorticity_o4", "ratio"),
		lo("node.scan_unaccounted_ratio", "ratio"),
		lo("node.halo_fetch_ms_per_query", "ms"),
		lo("node.halo_atoms_per_query", "count"),
		lo("node.points_examined_per_query", "count"),
		lo("node.busy_skew", "ratio"),
		lo("node.pool_new_per_get", "ratio"),
		lo("node.unaligned_box_failed", "count"),
		lo("cache.lookup_hit_ns_per_point", "ns"),
		lo("cache.lookup_miss_us", "us"),
		lo("cache.store_ns_per_point", "ns"),
		hi("cache.hit_ratio", "ratio"),
		lo("cache.stores", "count"),
		lo("cache.evictions", "count"),
		lo("cache.resident_kb", "KB"),
		lo("wire.frame_encode_ns_per_point", "ns"),
		lo("wire.frame_decode_ns_per_point", "ns"),
		lo("wire.frame_bytes_per_point", "B"),
		lo("wire.json_encode_ns_per_point", "ns"),
		lo("wire.json_decode_ns_per_point", "ns"),
		lo("wire.json_bytes_per_point", "B"),
		lo("wire.user_hop_ms_p50", "ms"),
		lo("wire.node_hop_ms_p50", "ms"),
		lo("wire.node_handler_self_ms_p50", "ms"),
		lo("wire.ttfb_ms_p50", "ms"),
		lo("wire.user_bytes_per_point", "B"),
		lo("wire.node_bytes_per_point", "B"),
		lo("wire.requests_per_query", "count"),
		lo("mediator.self_ms_p50", "ms"),
		lo("mediator.self_ns_per_point", "ns"),
		lo("mediator.fanout_wait_ms_p50", "ms"),
		lo("sched.self_ms_p50", "ms"),
		lo("sched.queue_wait_ms_p50", "ms"),
		lo("sched.queue_wait_ms_p95", "ms"),
		hi("sched.shared_scan_ratio", "ratio"),
		hi("sched.scans_saved_per_query", "count"),
		hi("sched.batch_size_mean", "count"),
		lo("sched.shed_ratio", "ratio"),
		lo("sched.bare_p50_ms", "ms"),
		lo("proc.alloc_mb_per_query", "MB"),
		lo("proc.allocs_per_query", "count"),
		lo("proc.gc_cycles", "count"),
		lo("proc.gc_pause_ms_total", "ms"),
		lo("bench.trace_overhead_ratio", "ratio"),
		lo("bench.oracle_s", "s"),
		lo("bench.check_s", "s"),
		hi("bench.samples", "count"),
	)
	return ms
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// catalogue returns the BENCHMARK.json this program defines.
func catalogue() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
