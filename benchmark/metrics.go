package main

// The benchmark's declared surface: the workloads and every metric a run
// emits, by name and unit. BENCHMARK.json at the repository root repeats
// these names (with direction, and the bound of the end-to-end ones);
// TestDeclaredNames keeps the two in step.

import "math"

type metricDecl struct {
	Name string
	Unit string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; 0 on per-layer metrics, which have none.
	Bound float64
}

// Workload names. Every workload emits every metric below; a per-layer
// metric that has no meaning on a workload reads 0 there.
const (
	wlGetPipelined = "wire-get-pipelined"
	wlMixedUnpiped = "wire-mixed-unpipelined"
	wlSetEvict     = "wire-set-evict"
	wlTable        = "table-fill-lookup"
)

var workloadNames = []string{wlGetPipelined, wlMixedUnpiped, wlSetEvict, wlTable}

// End-to-end metrics, measured with tracing off (--trace 0), with the
// bounds ISSUE 13 fixed. hit_ratio's is the issue's 0.01 absolute as a
// share of the 0.245 the one workload that can miss measures; on the
// workloads whose keys fit, a miss is counted as a failure instead.
var endToEnd = []metricDecl{
	{"setup_s", "s", 0.25},
	{"hit_ratio", "ratio", 0.04},
	{"mem_bytes_per_item", "B", 0.02},
}

// candidates are the timing metrics the issue proposed as end-to-end, with
// the bounds it gave them, and that its calibration rule moved to the
// per-layer section: on this host ten runs of one commit spread wider than
// those bounds, or two such sets disagree by more (README.md,
// "Calibration"). An untraced run still measures and prints them, and a
// full set records their spread, so the rule can be applied again on a
// quieter host.
var candidates = []metricDecl{
	{"req_per_s", "1/s", 0.10},
	{"rtt_p50_us", "us", 0.10},
	{"rtt_p99_us", "us", 0.25},
	{"cpu_ns_per_op", "ns", 0.05},
}

// Per-layer metrics, measured by the traced run (--trace 1).
var perLayer = []metricDecl{
	// The moved candidates, measured as the untraced run measures them.
	{Name: "req_per_s", Unit: "1/s"},
	{Name: "rtt_p50_us", Unit: "us"},
	{Name: "rtt_p99_us", Unit: "us"},
	{Name: "cpu_ns_per_op", Unit: "ns"},
	// Ladder: the workload's op stream replayed single-goroutine through
	// successive public entry points.
	{Name: "workload.gen_ns_per_op", Unit: "ns"},
	{Name: "generic.get_ns_per_op", Unit: "ns"},
	{Name: "generic.upsert_ns_per_op", Unit: "ns"},
	{Name: "cache.get_ns_per_op", Unit: "ns"},
	{Name: "cache.set_ns_per_op", Unit: "ns"},
	{Name: "cache.wrap_get_ns_per_op", Unit: "ns"},
	{Name: "cache.wrap_set_ns_per_op", Unit: "ns"},
	{Name: "cache.evictions_per_kset", Unit: "count"},
	{Name: "cache.hit_ratio_inproc", Unit: "ratio"},
	{Name: "wire.raw_ns_per_req", Unit: "ns"},
	{Name: "client.conn_ns_per_req", Unit: "ns"},
	{Name: "client.codec_ns_per_req", Unit: "ns"},
	// Counters read around the untraced slices of the full workload.
	{Name: "generic.displacements_per_insert", Unit: "count"},
	{Name: "generic.path_len_mean", Unit: "count"},
	{Name: "generic.max_path_len", Unit: "count"},
	{Name: "generic.path_restarts_per_kinsert", Unit: "count"},
	{Name: "generic.grows", Unit: "count"},
	{Name: "generic.migration_backlog_end", Unit: "count"},
	{Name: "spinlock.contended_ratio", Unit: "ratio"},
	{Name: "spinlock.yields_per_kop", Unit: "count"},
	{Name: "proc.user_ns_per_req", Unit: "ns"},
	{Name: "kernel.sys_ns_per_req", Unit: "ns"},
	{Name: "kernel.vcsw_per_req", Unit: "count"},
	{Name: "server.conn_resid_ns_per_req", Unit: "ns"},
	{Name: "proc.allocs_per_req", Unit: "count"},
	{Name: "proc.alloc_bytes_per_req", Unit: "B"},
	{Name: "proc.gc_cycles", Unit: "count"},
	{Name: "proc.gc_pause_ms", Unit: "ms"},
	{Name: "proc.heap_inuse_bytes_per_item", Unit: "B"},
	{Name: "rtt_p999_us", Unit: "us"},
	{Name: "rtt_samples", Unit: "count"},
	// Traced slices: every server span armed, every request carrying a
	// wire trace ID.
	{Name: "trace.overhead_share", Unit: "ratio"},
	{Name: "trace.stage_coverage", Unit: "ratio"},
	{Name: "trace.stage_share.read", Unit: "ratio"},
	{Name: "trace.stage_share.parse", Unit: "ratio"},
	{Name: "trace.stage_share.dispatch", Unit: "ratio"},
	{Name: "trace.stage_share.lock", Unit: "ratio"},
	{Name: "trace.stage_share.probe", Unit: "ratio"},
	{Name: "trace.stage_share.evict", Unit: "ratio"},
	{Name: "trace.stage_share.flush", Unit: "ratio"},
	{Name: "trace.stage_share.other", Unit: "ratio"},
	// In-process table rows (table-fill-lookup).
	{Name: "fill_mops", Unit: "Mop/s"},
	{Name: "lookup_mops", Unit: "Mop/s"},
	{Name: "mixed_mops", Unit: "Mop/s"},
	{Name: "core.lookup_batch_mops", Unit: "Mop/s"},
	{Name: "core.scaling_lookup", Unit: "ratio"},
	{Name: "core.scaling_fill", Unit: "ratio"},
	{Name: "core.displacements_per_insert", Unit: "count"},
	{Name: "core.path_len_mean", Unit: "count"},
	{Name: "core.max_path_len", Unit: "count"},
	{Name: "core.path_restarts_per_kinsert", Unit: "count"},
	{Name: "generic.u64_fill_mops", Unit: "Mop/s"},
	{Name: "generic.u64_lookup_mops", Unit: "Mop/s"},
	{Name: "generic.u64_mixed_mops", Unit: "Mop/s"},
	{Name: "generic.vs_core_lookup_ratio", Unit: "ratio"},
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values and renders exactly the declared
// names, so a run can neither omit a metric nor invent one.
type metricSet map[string]float64

func (m metricSet) render(decls []metricDecl) map[string]metric {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over an empty window; JSON has no NaN
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}
