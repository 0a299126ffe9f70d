package harness

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/dataset"
)

const (
	// tracePairs is how many bare/traced pass pairs a traced run makes;
	// sidePasses how many passes price a variant (alerts off, metrics on,
	// isolated RunStream). Neighbours on this shared box only ever slow a
	// pass down, so what a variant costs is read off its fastest pass:
	// differences between medians of so few passes are mostly noise.
	tracePairs = 4
	sidePasses = 3
	// BudgetTolerancePct is how far the per-layer rows of a
	// single-goroutine workload may miss the pass wall time.
	BudgetTolerancePct = 10
)

// BudgetRow is one layer's share of a pass, in nanoseconds per packet.
type BudgetRow struct {
	Layer string
	NS    float64
	How   string
}

// Trace is the result of one traced run.
type Trace struct {
	// Recorder holds the spans of the traced daemon passes.
	Recorder  *Recorder
	Attempted int64
	W         Workload
	metrics   []Metric
	// Budget rows, the traced pass wall they should sum to (ns per
	// packet) and the resulting residual.
	Budget      []BudgetRow
	WallNS      float64
	ResidualPct float64
}

// Metrics lists the per-layer metrics in BENCHMARK.json order.
func (t *Trace) Metrics() []Metric { return t.metrics }

// passSums are the in-situ totals of one traced pass.
type passSums struct {
	wall, next, recycle, predict, proba       int64
	chunks, chunkRows, predictRows, probaRows int
	lastNextEnd, end                          int64
	chunkLatUS, nextLatUS                     []float64
}

// sumPasses folds spans into per-pass totals, in pass order.
func sumPasses(spans []Span) []*passSums {
	var out []*passSums
	byPass := map[int]*passSums{}
	for _, s := range spans {
		p := byPass[s.Pass]
		if p == nil {
			p = &passSums{}
			byPass[s.Pass] = p
			out = append(out, p)
		}
		switch s.Name {
		case SpanPass:
			p.wall, p.end = s.Dur(), s.End
		case SpanNext:
			p.next += s.Dur()
			p.lastNextEnd = s.End
			p.nextLatUS = append(p.nextLatUS, float64(s.Dur())/1e3)
		case SpanChunk:
			p.chunks++
			p.chunkRows += s.Rows
			p.chunkLatUS = append(p.chunkLatUS, float64(s.Dur())/1e3)
		case SpanRecycle:
			p.recycle += s.Dur()
		case SpanPredict:
			p.predict += s.Dur()
			p.predictRows += s.Rows
		case SpanProba:
			p.proba += s.Dur()
			p.probaRows += s.Rows
		}
	}
	return out
}

// fastest returns the index of the shortest of n wall times.
func fastest(n int, wall func(i int) int64) int {
	best := 0
	for i := 1; i < n; i++ {
		if wall(i) < wall(best) {
			best = i
		}
	}
	return best
}

// fastestPass returns the pass with the shortest wall time.
func fastestPass(ps []*Pass) *Pass {
	return ps[fastest(len(ps), func(i int) int64 { return int64(ps[i].Wall) })]
}

// samePlan is the wrapper-fidelity check: a traced pass must take the
// plan of the bare one and reach the same verdicts.
func samePlan(bare, traced *Pass) error {
	b, t := bare.Stream, traced.Stream
	switch {
	case bare.Status.DecodeMode != traced.Status.DecodeMode:
		return fmt.Errorf("bench: tracing changed the decode mode: %q vs %q", bare.Status.DecodeMode, traced.Status.DecodeMode)
	case b.LazyViews != t.LazyViews || b.Pipelined != t.Pipelined || b.Depth != t.Depth || b.Workers != t.Workers || b.Shards != t.Shards:
		return fmt.Errorf("bench: tracing changed the stream plan: %+v vs %+v", b, t)
	case bare.Status.Verdicts != traced.Status.Verdicts || bare.AlertLines != traced.AlertLines:
		return fmt.Errorf("bench: tracing changed the verdicts: %d/%d lines vs %d/%d", bare.Status.Verdicts, bare.AlertLines, traced.Status.Verdicts, traced.AlertLines)
	}
	return nil
}

// runStreamIsolated is one Engine.RunStream over the workload's ingest
// path with no daemon and no hooks, traced through the same wrappers.
func (e *Env) runStreamIsolated(rec *Recorder) (core.StreamStats, error) {
	var none core.StreamStats
	if err := e.Eng.ReplaceModel(traceClassifier(e.Model, rec)); err != nil {
		return none, err
	}
	inner, release, err := e.openSource(false)
	if err != nil {
		return none, err
	}
	defer release()
	src, _, err := traceSource(inner, rec, e.Cap.Packets)
	if err != nil {
		return none, err
	}
	var fed chan error
	runtime.GC() // as before every daemon pass
	t0 := time.Now()
	_, recycles := inner.(dataset.Recycler)
	rec.BeginPass(t0, recycles)
	if fs, ok := inner.(*daemon.FeedSource); ok {
		fed = make(chan error, 1) // one send, never blocks the producer
		go func() { fed <- feed(fs.Addr(), func(w *bufio.Writer) error { return e.produce(w, 0) }) }()
	}
	res, err := e.Eng.RunStream(src, core.ModeTest, e.W.Stream)
	rec.EndPass(time.Now())
	release()
	if fed != nil {
		if ferr := <-fed; err == nil {
			err = ferr
		}
	}
	if err != nil {
		return none, err
	}
	if res == nil || int64(len(res.Pred)) != e.Ref.Verdicts {
		return none, fmt.Errorf("bench: isolated RunStream disagrees with the reference verdict count %d", e.Ref.Verdicts)
	}
	return e.Eng.LastStream, nil
}

// RunTrace performs one set-up and the traced run: interleaved bare and
// traced daemon passes, the priced variants, the isolated loops, and
// (feed workloads) the open-loop segment.
func RunTrace(w Workload, seed int64, dir string, log io.Writer) (*Trace, error) {
	env, err := Setup(w, seed, dir)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	PrintHeader(log, env)
	n := float64(env.Cap.Packets)
	chunks := env.Cap.Packets/ChunkRows + 1
	rec := NewRecorder(chunks * tracePairs)
	t := &Trace{Recorder: rec, W: w}

	var bare, traced []*Pass
	for i := 0; i < tracePairs; i++ {
		b, err := env.RunPass(PassOpts{})
		if err != nil {
			return nil, err
		}
		tr, err := env.RunPass(PassOpts{Rec: rec})
		if err != nil {
			return nil, err
		}
		if err := samePlan(b, tr); err != nil {
			return nil, err
		}
		bare, traced = append(bare, b), append(traced, tr)
		t.Attempted += int64(b.Packets + tr.Packets)
	}
	side := func(o PassOpts) (float64, error) {
		var ps []*Pass
		for i := 0; i < sidePasses; i++ {
			p, err := env.RunPass(o)
			if err != nil {
				return 0, err
			}
			ps = append(ps, p)
			t.Attempted += int64(p.Packets)
		}
		return float64(fastestPass(ps).Wall), nil
	}
	// Alert encoding is priced by leaving the sink out. That only shows in
	// the wall time while the pipeline goroutine is what the pass waits
	// for, so the feed workload prices it on the capture file instead.
	noAlerts, withAlerts := PassOpts{NoAlerts: true}, PassOpts{}
	if w.Ingest == IngestFeed {
		noAlerts.FromFile, withAlerts.FromFile = true, true
	}
	noAlertsWall, err := side(noAlerts)
	if err != nil {
		return nil, err
	}
	alertsWall := float64(fastestPass(bare).Wall)
	if withAlerts.FromFile {
		if alertsWall, err = side(withAlerts); err != nil {
			return nil, err
		}
	}
	metricsWall, err := side(PassOpts{Metrics: true})
	if err != nil {
		return nil, err
	}
	isoRec := NewRecorder(chunks * sidePasses)
	var isoStats []core.StreamStats
	for i := 0; i < sidePasses; i++ {
		st, err := env.runStreamIsolated(isoRec)
		if err != nil {
			return nil, err
		}
		isoStats = append(isoStats, st)
	}
	iso, err := env.runIsolated()
	if err != nil {
		return nil, err
	}
	var ol openLoopResult
	if w.Ingest == IngestFeed {
		if ol, err = env.runOpenLoop(); err != nil {
			return nil, err
		}
	}

	// In-situ layer totals come from the fastest traced daemon pass;
	// latency distributions pool every traced pass.
	all := sumPasses(rec.Spans())
	best := fastest(len(all), func(i int) int64 { return all[i].wall })
	in, last := all[best], traced[best]
	isoAll := sumPasses(isoRec.Spans())
	best = fastest(len(isoAll), func(i int) int64 { return isoAll[i].wall })
	isoIn, isoStall := isoAll[best], isoStats[best].SinkStallNS
	bareWall, tracedWall := float64(fastestPass(bare).Wall), float64(in.wall)
	next, recycle := float64(in.next), float64(in.recycle)
	predict, proba := float64(in.predict), float64(in.proba)
	perRow := func(ns float64, rows int) float64 {
		if rows == 0 {
			return 0
		}
		return ns / float64(rows)
	}
	var chunkLat, nextLat []float64
	for _, p := range all {
		chunkLat = append(chunkLat, p.chunkLatUS...)
		nextLat = append(nextLat, p.nextLatUS...)
	}
	sort.Float64s(chunkLat)
	sort.Float64s(nextLat)
	watchNextP99 := 0.0
	if w.Ingest == IngestWatch {
		watchNextP99 = Percentile(nextLat, 99)
	}

	// Isolated RunStream: wall, and what is left after the layers it
	// calls. On a staged run Next overlaps the sink, so the time the sink
	// waited for chunks stands in for it.
	isoWall := float64(isoIn.wall)
	coreSelf := isoWall - float64(isoIn.recycle+isoIn.predict+isoIn.proba)
	if w.Sequential() {
		coreSelf -= float64(isoIn.next)
	} else {
		coreSelf -= float64(isoStall)
	}

	alerts := float64(env.Ref.Alerts)
	alertEncode := 0.0
	if alerts > 0 {
		alertEncode = (alertsWall - noAlertsWall) / alerts
	}
	minPPS, maxPPS := bare[0].PPS(), bare[0].PPS()
	for _, p := range bare {
		minPPS, maxPPS = min(minPPS, p.PPS()), max(maxPPS, p.PPS())
	}

	// The budget: rows measured independently of each other, against the
	// traced pass they should add up to.
	t.Budget = []BudgetRow{
		{"dataset (pcap, netpkt, chunking)", (next + recycle) / n, "in situ: Source.Next + Recycle"},
		{"mlkit (scoring)", (predict + proba) / n, "in situ: Predict + Proba"},
		{"core (ops, frames, flow sink, flush)", coreSelf / n, "isolated RunStream minus the layers it calls"},
		{"daemon (alert encode + write)", alertEncode * alerts / n, "pass with alerts minus pass without"},
	}
	if w.ConnLog {
		t.Budget = append(t.Budget, BudgetRow{"daemon (conn-log assemble, sort, write)",
			iso.flowAssembleNS + iso.connlogNS*float64(env.Ref.ConnLines-1)/n, "isolated flow loops"})
	}
	t.WallNS = tracedWall / n
	sum := 0.0
	for _, r := range t.Budget {
		sum += r.NS
	}
	t.ResidualPct = math.Abs(sum-t.WallNS) / t.WallNS * 100
	tail := float64(in.end - in.lastNextEnd)

	st := last.Stream
	lazy := 0.0
	if st.LazyViews {
		lazy = 1
	}
	t.metrics, err = fill(PerLayer, map[string]float64{
		"pcap.frame_ns_per_pkt":              iso.frameNS,
		"pcap.open_us_per_file":              iso.openUS,
		"netpkt.view_headers_ns_per_pkt":     iso.viewHeadersNS,
		"netpkt.view_apps_ns_per_pkt":        iso.viewAppsNS,
		"netpkt.decode_eager_ns_per_pkt":     iso.eagerNS,
		"netpkt.decode_eager_allocs_per_pkt": iso.eagerAllocs,
		"dataset.source_stage_ns_per_pkt":    iso.sourceStageNS,
		"dataset.next_busy_ns_per_pkt":       next / n,
		"dataset.recycle_ns_per_pkt":         recycle / n,
		"dataset.chunks":                     float64(in.chunks),
		"dataset.rows_per_chunk_mean":        perRow(float64(in.chunkRows), in.chunks),
		"core.runstream_ns_per_pkt":          isoWall / n,
		"core.self_ns_per_pkt":               coreSelf / n,
		"core.chunk_latency_p50_us":          Percentile(chunkLat, 50),
		"core.chunk_latency_p99_us":          Percentile(chunkLat, 99),
		"core.chunk_latency_samples":         float64(len(chunkLat)),
		"core.source_stall_ms":               float64(st.SourceStallNS) / 1e6,
		"core.ops_stall_ms":                  float64(st.OpsStallNS) / 1e6,
		"core.sink_stall_ms":                 float64(st.SinkStallNS) / 1e6,
		"core.peak_inflight_kb":              float64(st.PeakInFlightBytes) / 1024,
		"core.lazy_views":                    lazy,
		"core.effective_depth":               float64(st.Depth),
		"core.effective_shards":              float64(st.Shards),
		"flow.assemble_ns_per_pkt":           iso.flowAssembleNS,
		"flow.heap_mb_before_flush":          iso.flowHeapMB,
		"flow.connections":                   iso.flowConns,
		"flow.evicted_midstream_share":       iso.flowEvictedShare,
		"flow.connlog_ns_per_conn":           iso.connlogNS,
		"mlkit.predict_ns_per_row":           perRow(predict, in.predictRows),
		"mlkit.proba_ns_per_row":             perRow(proba, in.probaRows),
		"mlkit.rows_scored_per_verdict":      perRow(float64(in.predictRows+in.probaRows), int(env.Ref.Verdicts)),
		"daemon.self_ns_per_pkt":             (tracedWall - isoWall) / n,
		"daemon.alert_encode_ns_per_alert":   alertEncode,
		"daemon.alert_bytes_per_alert":       perRow(float64(last.AlertBytes), int(last.AlertLines)),
		"daemon.alert_share":                 perRow(alerts, int(env.Ref.Verdicts)),
		"daemon.drain_tail_ms":               tail / 1e6,
		"daemon.watch_next_p99_us":           watchNextP99,
		"daemon.feed_ingest_pps":             iso.feedIngestPPS,
		"daemon.feed_verdict_latency_p50_ms": ol.p50,
		"daemon.feed_verdict_latency_p90_ms": ol.p90,
		"daemon.feed_verdict_latency_p99_ms": ol.p99,
		"harness.gen_late_max_ms":            ol.lateMaxMS,
		"obs.metrics_overhead_pct":           (metricsWall/bareWall - 1) * 100,
		"harness.trace_overhead_pct":         (tracedWall/bareWall - 1) * 100,
		"harness.budget_residual_pct":        t.ResidualPct,
		"harness.baseline_heap_mb":           float64(last.Baseline) / mb,
		"harness.feed_gen_us_per_pkt":        iso.feedGenUS,
		"harness.pass_pps_min":               minPPS,
		"harness.pass_pps_max":               maxPPS,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "chunk latency: %d samples support up to p%g; watch/feed Next: %d samples\n",
		len(chunkLat), SupportedTail(len(chunkLat)), len(nextLat))
	return t, nil
}

// PrintBudget prints the per-layer rows, their sum, the pass wall time
// and the residual.
func (t *Trace) PrintBudget(w io.Writer) {
	fmt.Fprintf(w, "budget for %s (ns per packet)\n", t.W.Name)
	sum := 0.0
	for _, r := range t.Budget {
		fmt.Fprintf(w, "  %-40s %10.1f  %5.1f%%  %s\n", r.Layer, r.NS, r.NS/t.WallNS*100, r.How)
		sum += r.NS
	}
	fmt.Fprintf(w, "  %-40s %10.1f\n  %-40s %10.1f\n  %-40s %10.1f%%\n",
		"sum of layers", sum, "traced pass wall", t.WallNS, "harness.budget_residual_pct", t.ResidualPct)
}

// CheckBudget fails when the rows of a workload whose pass runs on one
// goroutine miss the pass wall by more than BudgetTolerancePct. Where
// stages overlap (the staged loop, the feed's reader goroutine), wall
// times are not additive and the rows are not expected to add up.
func (t *Trace) CheckBudget() error {
	if !t.W.Overlapped() && t.ResidualPct > BudgetTolerancePct {
		return fmt.Errorf("bench: %s: layer rows miss the pass wall by %.1f%% (limit %d%%)", t.W.Name, t.ResidualPct, BudgetTolerancePct)
	}
	return nil
}
