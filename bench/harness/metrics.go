package harness

import "fmt"

// RunSeconds is how long the timed passes of one untraced run last.
const RunSeconds = 8

// MetricSpec names one metric of BENCHMARK.json. Bound, set on
// end-to-end metrics only, is the share of the parent's median by which
// the metric may get worse before a change counts as a regression.
type MetricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const lower, higher = "lower", "higher"

// EndToEnd lists the end-to-end metrics, reported on every workload.
// The time-based bounds are as wide as they are because of this sandbox,
// not because of the program: see "How the bounds were calibrated" in
// bench/README.md.
var EndToEnd = []MetricSpec{
	{"setup_s", "s", lower, 0.25},
	{"pps", "packets/s", higher, 0.25},
	{"cpu_us_per_packet", "us", lower, 0.25},
	{"allocs_per_packet", "count", lower, 0.10},
	{"alloc_bytes_per_packet", "B", lower, 0.10},
	{"peak_heap_mb", "MB", lower, 0.15},
}

// PerLayer lists the per-layer metrics of a traced run, layer by layer.
var PerLayer = []MetricSpec{
	{Name: "pcap.frame_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "pcap.open_us_per_file", Unit: "us", Better: lower},
	{Name: "netpkt.view_headers_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "netpkt.view_apps_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "netpkt.decode_eager_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "netpkt.decode_eager_allocs_per_pkt", Unit: "count", Better: lower},
	{Name: "dataset.source_stage_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "dataset.next_busy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "dataset.recycle_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "dataset.chunks", Unit: "count", Better: lower},
	{Name: "dataset.rows_per_chunk_mean", Unit: "count", Better: higher},
	{Name: "core.runstream_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "core.self_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "core.chunk_latency_p50_us", Unit: "us", Better: lower},
	{Name: "core.chunk_latency_p99_us", Unit: "us", Better: lower},
	{Name: "core.chunk_latency_samples", Unit: "count", Better: higher},
	{Name: "core.source_stall_ms", Unit: "ms", Better: lower},
	{Name: "core.ops_stall_ms", Unit: "ms", Better: lower},
	{Name: "core.sink_stall_ms", Unit: "ms", Better: lower},
	{Name: "core.peak_inflight_kb", Unit: "KB", Better: lower},
	{Name: "core.lazy_views", Unit: "count", Better: higher},
	{Name: "core.effective_depth", Unit: "count", Better: higher},
	{Name: "core.effective_shards", Unit: "count", Better: higher},
	{Name: "flow.assemble_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "flow.heap_mb_before_flush", Unit: "MB", Better: lower},
	{Name: "flow.connections", Unit: "count", Better: lower},
	{Name: "flow.evicted_midstream_share", Unit: "ratio", Better: higher},
	{Name: "flow.connlog_ns_per_conn", Unit: "ns", Better: lower},
	{Name: "mlkit.predict_ns_per_row", Unit: "ns", Better: lower},
	{Name: "mlkit.proba_ns_per_row", Unit: "ns", Better: lower},
	{Name: "mlkit.rows_scored_per_verdict", Unit: "ratio", Better: lower},
	{Name: "daemon.self_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "daemon.alert_encode_ns_per_alert", Unit: "ns", Better: lower},
	{Name: "daemon.alert_bytes_per_alert", Unit: "B", Better: lower},
	{Name: "daemon.alert_share", Unit: "ratio", Better: lower},
	{Name: "daemon.drain_tail_ms", Unit: "ms", Better: lower},
	{Name: "daemon.watch_next_p99_us", Unit: "us", Better: lower},
	{Name: "daemon.feed_ingest_pps", Unit: "packets/s", Better: higher},
	{Name: "daemon.feed_verdict_latency_p50_ms", Unit: "ms", Better: lower},
	{Name: "daemon.feed_verdict_latency_p90_ms", Unit: "ms", Better: lower},
	{Name: "daemon.feed_verdict_latency_p99_ms", Unit: "ms", Better: lower},
	{Name: "obs.metrics_overhead_pct", Unit: "%", Better: lower},
	{Name: "harness.gen_late_max_ms", Unit: "ms", Better: lower},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "harness.budget_residual_pct", Unit: "%", Better: lower},
	{Name: "harness.baseline_heap_mb", Unit: "MB", Better: lower},
	{Name: "harness.feed_gen_us_per_pkt", Unit: "us", Better: lower},
	{Name: "harness.pass_pps_min", Unit: "packets/s", Better: higher},
	{Name: "harness.pass_pps_max", Unit: "packets/s", Better: higher},
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// fill pairs every metric of specs with its measured value.
func fill(specs []MetricSpec, values map[string]float64) ([]Metric, error) {
	out := make([]Metric, 0, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", s.Name)
		}
		out = append(out, Metric{s.Name, v, s.Unit})
	}
	if len(values) != len(specs) {
		return nil, fmt.Errorf("bench: %d values measured for %d declared metrics", len(values), len(specs))
	}
	return out, nil
}

// Spec is the content of BENCHMARK.json, generated from the tables above
// and Workloads (lumenperf -spec prints it).
func Spec() map[string]any {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []workload
	for _, w := range Workloads() {
		ws = append(ws, workload{w.Name, w.Why})
	}
	var es []e2e
	for _, m := range EndToEnd {
		es = append(es, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	var ls []layer
	for _, m := range PerLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": RunSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}
