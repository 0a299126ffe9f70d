// Command lumenbench runs Lumen's benchmarking suite and regenerates the
// paper's tables and figures: Table 1, Fig. 1a–c, Fig. 5–10, the §5.2
// validation and the §5.4 improvement results (Obs. 5).
//
// Usage:
//
//	lumenbench                         # everything, default scale
//	lumenbench -fig 5                  # only Fig. 5
//	lumenbench -algs A13,A14 -datasets F1,F4
//	lumenbench -out results/           # also write results.json + CSVs
//	lumenbench -trace-out trace.json   # Chrome trace of the run (Perfetto)
//	lumenbench -metrics-out m.prom     # Prometheus metrics snapshot
//	lumenbench -prequential drift.json # drifting-traffic prequential benchmark
//
// See OBSERVABILITY.md for the span hierarchy and metric names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lumen/internal/benchsuite"
	"lumen/internal/obs"
	"lumen/internal/report"
)

// options bundles the output-shaping flags that run consumes alongside
// the suite Config.
type options struct {
	fig         string // which figure/table to produce
	out         string // directory for results.json + CSVs
	profile     bool   // print the aggregated per-op profile
	profileOut  string // write the per-op profile JSON here
	traceOut    string // write a Chrome trace_event JSON here
	traceJSONL  string // write flat per-span JSONL records here
	metricsOut  string // write Prometheus text metrics here at exit
	metricsAddr string // serve Prometheus metrics on this address
}

// The command line (README.md "lumenbench flags" is pinned to it by
// TestREADMEFlagTable).
var (
	scale       = flag.Float64("scale", 0.6, "dataset scale factor (1.0 = full synthetic size)")
	seed        = flag.Int64("seed", 7, "random seed")
	fig         = flag.String("fig", "all", "which output: "+strings.Join(validFigs, ", "))
	algs        = flag.String("algs", "", "comma-separated algorithm IDs (default: all 16)")
	datasets    = flag.String("datasets", "", "comma-separated dataset IDs (default: all 15)")
	out         = flag.String("out", "", "directory to write results.json and CSV figures")
	workers     = flag.Int("workers", 0, "worker-pool size for suite runs (0 = GOMAXPROCS)")
	noCache     = flag.Bool("nocache", false, "disable the shared intermediate-result cache")
	cacheEnt    = flag.Int("cache-entries", 0, "bound the shared cache to N entries with LRU eviction (0 = unbounded)")
	chunkRows   = flag.Int("chunk-rows", 0, "packets per chunk of every pass (0 = whole trace in one chunk, the only chunking the shared cache serves)")
	chunkBytes  = flag.Int("chunk-bytes", 0, "wire bytes per chunk of every pass (0 = no byte bound; combines with -chunk-rows, first bound wins)")
	pipeDepth   = flag.Int("pipeline-depth", 0, "chunks queued at each stage hand-off (>0 runs source and ops goroutines ahead of the sink; 0 = one goroutine)")
	profile     = flag.Bool("profile", false, "sample per-op allocations and print the aggregated per-op profile")
	profileOut  = flag.String("profile-out", "", "write the aggregated per-op profile as JSON to this file")
	traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run to this file (open at ui.perfetto.dev)")
	traceJSONL  = flag.String("trace-jsonl", "", "write the trace as flat per-span JSONL records to this file")
	metricsOut  = flag.String("metrics-out", "", "write Prometheus text-format metrics to this file when the run finishes")
	metricsAddr = flag.String("metrics-addr", "", "serve Prometheus metrics at http://ADDR/metrics while the suite runs (e.g. localhost:9090)")
	preqOut     = flag.String("prequential", "", "run the drifting-traffic prequential benchmark (static vs online vs drift-triggered retrain) and write the report JSON to this file instead of the figure suite")
	preqPhases  = flag.String("preq-phases", "", "comma-separated phase dataset IDs for -prequential (default P1,P4)")
	preqModel   = flag.String("preq-model", "", "model_type for -prequential; must partial-fit natively (default mlp)")
	preqWindow  = flag.Int("preq-window", 0, "F1 window and chunk size in rows for -prequential (default 64)")
)

func main() {
	flag.Parse()

	if *preqOut != "" {
		// -scale defaults differ between modes: the figure suite trims to
		// 0.6, the drift scenario needs the full synthetic size unless the
		// user explicitly asked otherwise.
		pc := benchsuite.PrequentialConfig{
			Seed:       *seed,
			Model:      *preqModel,
			WindowRows: *preqWindow,
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				pc.Scale = *scale
			}
		})
		if ids := splitIDs(*preqPhases); len(ids) == 2 {
			pc.PhaseA, pc.PhaseB = ids[0], ids[1]
		} else if len(ids) != 0 {
			fmt.Fprintln(os.Stderr, "lumenbench: -preq-phases wants exactly two dataset IDs")
			os.Exit(1)
		}
		if err := runPrequential(pc, *preqOut); err != nil {
			fmt.Fprintln(os.Stderr, "lumenbench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := benchsuite.Config{
		Scale:         *scale,
		Seed:          *seed,
		Workers:       *workers,
		NoCache:       *noCache,
		CacheEntries:  *cacheEnt,
		Profile:       *profile,
		ChunkRows:     *chunkRows,
		ChunkBytes:    *chunkBytes,
		PipelineDepth: *pipeDepth,
		AlgIDs:        splitIDs(*algs),
		DatasetIDs:    splitIDs(*datasets),
	}
	opts := options{
		fig:         *fig,
		out:         *out,
		profile:     *profile,
		profileOut:  *profileOut,
		traceOut:    *traceOut,
		traceJSONL:  *traceJSONL,
		metricsOut:  *metricsOut,
		metricsAddr: *metricsAddr,
	}
	if err := run(cfg, opts); err != nil {
		fmt.Fprintln(os.Stderr, "lumenbench:", err)
		os.Exit(1)
	}
}

// validFigs lists every -fig value run accepts.
var validFigs = []string{"all", "table1", "1a", "1b", "1c", "5", "6", "7", "8", "9", "10", "validate", "obs2", "features"}

// splitIDs splits a comma-separated scope flag, trimming whitespace
// around each token and dropping empty ones, so "A13, A14," selects two
// algorithms instead of passing " A14" and "" through to the suite.
func splitIDs(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func run(cfg benchsuite.Config, opts options) error {
	fig, out := opts.fig, opts.out
	known := false
	for _, id := range validFigs {
		if fig == id {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown -fig %q (valid: %s)", fig, strings.Join(validFigs, ", "))
	}
	want := func(ids ...string) bool {
		if fig == "all" {
			return true
		}
		for _, id := range ids {
			if fig == id {
				return true
			}
		}
		return false
	}

	if opts.traceOut != "" || opts.traceJSONL != "" {
		cfg.Tracer = obs.NewTracer()
	}
	if opts.metricsOut != "" || opts.metricsAddr != "" {
		cfg.Metrics = obs.NewMetrics()
	}
	if opts.metricsAddr != "" {
		// Listen eagerly so a bad address fails the run instead of dying
		// silently in the serving goroutine.
		ln, err := net.Listen("tcp", opts.metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", cfg.Metrics.Handler())
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Printf("serving metrics at http://%s/metrics\n", ln.Addr())
	}

	if want("table1") {
		fmt.Println("== Table 1: surveyed algorithms ==")
		fmt.Println(benchsuite.Table1())
	}
	if want("1a") {
		fmt.Println("== Fig 1a: possible direct comparisons in the literature ==")
		fmt.Println(benchsuite.Fig1a())
		fmt.Printf("fraction with zero possible comparisons: %.0f%%\n\n", benchsuite.Fig1aZeroFraction()*100)
	}

	needRuns := want("1b", "1c", "5", "6", "7", "8", "9", "10", "obs2")
	needValidate := want("validate")
	needFeatures := want("features")
	if !needRuns && !needValidate && !needFeatures {
		return nil
	}

	s, err := benchsuite.New(cfg)
	if err != nil {
		return err
	}
	if needFeatures {
		rows, err := s.AttackFeatureImportance(5)
		if err != nil {
			return err
		}
		fmt.Println("== §6 extension: relevant features per attack (permutation importance) ==")
		fmt.Println(benchsuite.FeatureImportanceTable(rows))
	}
	var files []namedCSV

	if needRuns {
		fmt.Printf("running suite: %d algorithms x %d datasets (scale %.2f)\n",
			len(s.Algorithms()), len(s.DatasetIDs()), cfg.Scale)
		s.RunAll()
		m := s.Store.Meta
		fmt.Printf("completed %d runs in %v (%d workers, %.0f%% utilization)\n",
			len(s.Store.Results), m.Wall.Round(time.Millisecond), m.Workers, m.Utilization*100)
		if !cfg.NoCache {
			cs := s.CacheStats()
			fmt.Printf("shared cache: %d hits, %d computations, %d dedup-waits, %d evictions, %d entries (~%s)\n",
				cs.Hits, cs.Misses, cs.DedupWaits, cs.Evictions, cs.Entries, report.HumanBytes(cs.Bytes))
		}
		fmt.Println()

		if want("5") {
			h := s.Fig5()
			fmt.Println("== Fig 5 ==")
			fmt.Println(h)
			files = append(files, namedCSV{"fig5.csv", h.CSV()})
		}
		if want("7") {
			rows := s.Fig7()
			var pd, rd []report.Dist
			for _, r := range rows {
				pd = append(pd, r.PrecDiff)
				rd = append(rd, r.RecDiff)
			}
			fmt.Println("== Fig 7a: precision distance from best (0 = optimal) ==")
			fmt.Println(report.DistTable("alg", pd))
			fmt.Println("== Fig 7b: recall distance from best ==")
			fmt.Println(report.DistTable("alg", rd))
		}
		if want("8", "1b") {
			p, r := s.Fig8()
			fmt.Println("== Fig 8a / Fig 1b: same-dataset precision ==")
			fmt.Println(report.DistTable("alg", p))
			fmt.Println("== Fig 8b: same-dataset recall ==")
			fmt.Println(report.DistTable("alg", r))
		}
		if want("9", "1c") {
			p, r := s.Fig9()
			fmt.Println("== Fig 9a / Fig 1c: cross-dataset precision ==")
			fmt.Println(report.DistTable("alg", p))
			fmt.Println("== Fig 9b: cross-dataset recall ==")
			fmt.Println(report.DistTable("alg", r))
		}
		if want("10") {
			hp, hr := s.Fig10()
			fmt.Println("== Fig 10 ==")
			fmt.Println(hp)
			fmt.Println(hr)
			files = append(files, namedCSV{"fig10a.csv", hp.CSV()}, namedCSV{"fig10b.csv", hr.CSV()})
		}
		if want("obs2") {
			sp, sr, cp, cr := s.Obs2(0.2)
			n := len(s.Algorithms())
			fmt.Println("== Observation 2 (score < 20% on at least one dataset) ==")
			fmt.Printf("same-dataset:  precision %d/%d algorithms, recall %d/%d\n", sp, n, sr, n)
			fmt.Printf("cross-dataset: precision %d/%d algorithms, recall %d/%d\n\n", cp, n, cr, n)
		}
		if want("6") {
			res, err := s.Fig6(0.10)
			if err != nil {
				return err
			}
			fmt.Println("== Fig 6 ==")
			fmt.Println(res.Heatmap)
			files = append(files, namedCSV{"fig6.csv", res.Heatmap.CSV()})
			fmt.Println("== Observation 5: merged-training / synthesis improvement over same-dataset mean ==")
			ids := make([]string, 0, len(res.MeanPrecision))
			for id := range res.MeanPrecision {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			imp := s.Obs5(res)
			for _, id := range ids {
				line := fmt.Sprintf("%s: merged precision %.1f%%", id, res.MeanPrecision[id]*100)
				if d, ok := imp[id]; ok {
					line += fmt.Sprintf(" (%+.1f%% vs its same-dataset mean)", d*100)
				}
				fmt.Println(line)
			}
			fmt.Println()
		}
	}
	if needValidate {
		rows, err := s.Validate()
		if err != nil {
			return err
		}
		fmt.Println("== §5.2 validation: Lumen vs originally reported scores ==")
		fmt.Println(benchsuite.ValidationTable(rows))
	}

	if profs := s.OpProfiles(); len(profs) > 0 {
		if opts.profile {
			fmt.Println("== per-operation profile (aggregated across runs) ==")
			t := &report.Table{Header: []string{"op", "runs", "cached", "total wall", "allocs"}}
			for _, p := range profs {
				t.Add(p.Func, fmt.Sprintf("%d", p.Count), fmt.Sprintf("%d", p.Cached),
					p.Wall.Round(time.Microsecond).String(), report.HumanBytes(int64(p.Allocs)))
			}
			fmt.Print(t)
			fmt.Println()
		}
		if opts.profileOut != "" {
			data, err := json.MarshalIndent(profs, "", " ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(opts.profileOut, data, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote per-op profile to", opts.profileOut)
		}
	}

	// Close the suite's root span, then export whatever observability
	// sinks were requested.
	s.Finish()
	if opts.traceOut != "" {
		if err := cfg.Tracer.WriteChromeTraceFile(opts.traceOut); err != nil {
			return err
		}
		fmt.Println("wrote Chrome trace to", opts.traceOut, "(open at ui.perfetto.dev)")
	}
	if opts.traceJSONL != "" {
		if err := cfg.Tracer.WriteJSONLFile(opts.traceJSONL); err != nil {
			return err
		}
		fmt.Println("wrote span JSONL to", opts.traceJSONL)
	}
	if opts.metricsOut != "" {
		if err := cfg.Metrics.WritePrometheusFile(opts.metricsOut); err != nil {
			return err
		}
		fmt.Println("wrote Prometheus metrics to", opts.metricsOut)
	}

	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if needRuns {
			if err := s.Store.Save(filepath.Join(out, "results.json")); err != nil {
				return err
			}
		}
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(out, f.name), []byte(f.data), 0o644); err != nil {
				return err
			}
		}
		fmt.Println("wrote", out)
	}
	return nil
}

type namedCSV struct {
	name string
	data string
}

// runPrequential executes the drifting-traffic prequential benchmark,
// prints the per-arm summary, and writes the full report (curves
// included) as JSON.
func runPrequential(pc benchsuite.PrequentialConfig, out string) error {
	rep, err := benchsuite.RunPrequential(pc)
	if err != nil {
		return err
	}
	fmt.Printf("prequential drift benchmark: %s -> %s, model %s, %d stream rows (drift at row %d), window %d\n",
		rep.PhaseA, rep.PhaseB, rep.Model, rep.StreamRows, rep.DriftRow, rep.WindowRows)
	t := &report.Table{Header: []string{"arm", "overall F1", "pre-drift F1", "post-drift F1", "drift events", "retrains", "generation", "swap"}}
	for _, a := range rep.Arms {
		swap := "-"
		if a.SwapOutcome != "" {
			swap = fmt.Sprintf("%s (disagree %.3f)", a.SwapOutcome, a.ShadowDisagree)
		}
		gen := "-"
		if a.Generation > 0 {
			gen = fmt.Sprintf("%d", a.Generation)
		}
		t.Add(a.Name, fmt.Sprintf("%.3f", a.OverallF1), fmt.Sprintf("%.3f", a.PreDriftF1),
			fmt.Sprintf("%.3f", a.PostDriftF1), fmt.Sprintf("%d", a.DriftEvents),
			fmt.Sprintf("%d", a.Retrains), gen, swap)
	}
	fmt.Print(t)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote prequential report to", out)
	return nil
}
