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
	"slices"
	"sort"
	"strings"
	"time"

	"lumen/internal/benchsuite"
	"lumen/internal/obs"
	"lumen/internal/report"
)

// options is the whole command line: the suite's Config, the flags that
// shape what run prints and writes, and the prequential benchmark's
// settings.
type options struct {
	benchsuite.Config
	fig         string // which figure/table to produce
	out         string // directory for results.json + CSVs
	profileOut  string // write the per-op profile JSON here
	traceOut    string // write a Chrome trace_event JSON here
	traceJSONL  string // write flat per-span JSONL records here
	metricsOut  string // write Prometheus text metrics here at exit
	metricsAddr string // serve Prometheus metrics on this address
	preqOut     string // run the prequential benchmark, write its report here
	preq        benchsuite.PrequentialConfig
}

// flags declares the whole command line (README.md "lumenbench flags" is
// pinned to it by TestREADMEFlagTable); each flag binds into the field it
// sets.
func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("lumenbench", flag.ExitOnError)
	fs.Float64Var(&o.Scale, "scale", 0, "dataset scale factor (1.0 = full synthetic size; 0 = 0.6 for the figure suite, 1.0 for -prequential)")
	fs.Int64Var(&o.Seed, "seed", 7, "random seed")
	fs.StringVar(&o.fig, "fig", "all", "which output: "+strings.Join(validFigs, ", "))
	fs.Var((*idList)(&o.AlgIDs), "algs", "comma-separated algorithm `IDs` (default: all 16)")
	fs.Var((*idList)(&o.DatasetIDs), "datasets", "comma-separated dataset `IDs` (default: all 15)")
	fs.StringVar(&o.out, "out", "", "directory to write results.json and CSV figures")
	fs.IntVar(&o.Workers, "workers", 0, "worker-pool size for suite runs (0 = GOMAXPROCS)")
	fs.BoolVar(&o.NoCache, "nocache", false, "disable the shared intermediate-result cache")
	fs.BoolVar(&o.Profile, "profile", false, "sample per-op allocations and print the aggregated per-op profile")
	fs.StringVar(&o.profileOut, "profile-out", "", "sample per-op allocations and write the aggregated per-op profile as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON of the run to this file (open at ui.perfetto.dev)")
	fs.StringVar(&o.traceJSONL, "trace-jsonl", "", "write the trace as flat per-span JSONL records to this file")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write Prometheus text-format metrics to this file when the run finishes")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus metrics at http://ADDR/metrics while the suite runs (e.g. localhost:9090)")
	fs.StringVar(&o.preqOut, "prequential", "", "run the drifting-traffic prequential benchmark (static vs online vs drift-triggered retrain) and write the report JSON to this file instead of the figure suite")
	fs.Func("preq-phases", "comma-separated phase dataset `IDs` for -prequential (default P1,P4)", func(s string) error {
		ids := splitIDs(s)
		if len(ids) != 2 {
			return fmt.Errorf("want exactly two dataset IDs")
		}
		o.preq.PhaseA, o.preq.PhaseB = ids[0], ids[1]
		return nil
	})
	fs.StringVar(&o.preq.Model, "preq-model", "", "model_type for -prequential (default mlp); one that cannot partial-fit only scores in the online arm")
	fs.IntVar(&o.preq.WindowRows, "preq-window", 0, "F1 window and chunk size in rows for -prequential (default 64)")
	return fs
}

func main() {
	var o options
	flags(&o).Parse(os.Args[1:])
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lumenbench:", err)
		os.Exit(1)
	}
}

// idList binds a comma-separated scope flag to an ID slice.
type idList []string

func (l *idList) String() string     { return strings.Join(*l, ",") }
func (l *idList) Set(s string) error { *l = splitIDs(s); return nil }

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

// run produces what o asks for: the prequential report when -prequential
// names a file, else the figures -fig selects.
func run(o options) error {
	if o.preqOut != "" {
		return runPrequential(o)
	}
	fig, out := o.fig, o.out
	if !slices.Contains(validFigs, fig) {
		return fmt.Errorf("unknown -fig %q (valid: %s)", fig, strings.Join(validFigs, ", "))
	}
	want := func(ids ...string) bool {
		return fig == "all" || slices.Contains(ids, fig)
	}

	if o.traceOut != "" || o.traceJSONL != "" {
		o.Tracer = obs.NewTracer()
	}
	if o.metricsOut != "" || o.metricsAddr != "" {
		o.Metrics = obs.NewMetrics()
	}
	// -profile prints the per-op table; -profile-out writes it. Either
	// needs allocation sampling on.
	printProfile := o.Profile
	o.Profile = o.Profile || o.profileOut != ""
	if o.metricsAddr != "" {
		// Listen eagerly so a bad address fails the run instead of dying
		// silently in the serving goroutine.
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", o.Metrics.Handler())
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

	s, err := benchsuite.New(o.Config)
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
			len(s.Algorithms()), len(s.DatasetIDs()), s.Store.Meta.Manifest.Scale)
		s.RunAll()
		m := s.Store.Meta
		fmt.Printf("completed %d runs in %v (%d workers, %.0f%% utilization)\n",
			len(s.Store.Results), m.Wall.Round(time.Millisecond), m.Workers, m.Utilization*100)
		if !o.NoCache {
			cs := s.CacheStats()
			fmt.Printf("shared cache: %d hits, %d computations, %d dedup-waits, %d entries (~%s)\n",
				cs.Hits, cs.Misses, cs.DedupWaits, cs.Entries, report.HumanBytes(cs.Bytes))
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
		if printProfile {
			fmt.Println("== per-operation profile (aggregated across runs) ==")
			t := &report.Table{Header: []string{"op", "runs", "cached", "total wall", "allocs"}}
			for _, p := range profs {
				t.Add(p.Func, fmt.Sprintf("%d", p.Count), fmt.Sprintf("%d", p.Cached),
					p.Wall.Round(time.Microsecond).String(), report.HumanBytes(int64(p.Allocs)))
			}
			fmt.Print(t)
			fmt.Println()
		}
		if o.profileOut != "" {
			data, err := json.MarshalIndent(profs, "", " ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.profileOut, data, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote per-op profile to", o.profileOut)
		}
	}

	// Close the suite's root span, then export whatever observability
	// sinks were requested.
	s.Finish()
	if o.traceOut != "" {
		if err := o.Tracer.WriteChromeTraceFile(o.traceOut); err != nil {
			return err
		}
		fmt.Println("wrote Chrome trace to", o.traceOut, "(open at ui.perfetto.dev)")
	}
	if o.traceJSONL != "" {
		if err := o.Tracer.WriteJSONLFile(o.traceJSONL); err != nil {
			return err
		}
		fmt.Println("wrote span JSONL to", o.traceJSONL)
	}
	if o.metricsOut != "" {
		if err := o.Metrics.WritePrometheusFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Println("wrote Prometheus metrics to", o.metricsOut)
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
// included) as JSON to o.preqOut. -scale and -seed apply to it too.
func runPrequential(o options) error {
	pc := o.preq
	pc.Scale, pc.Seed = o.Scale, o.Seed
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
	if err := os.WriteFile(o.preqOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote prequential report to", o.preqOut)
	return nil
}
