// Command lumen runs one anomaly-detection pipeline — a built-in
// algorithm or a user-written JSON template (paper Fig. 4) — on a
// benchmark dataset or a labelled pcap, and reports its scores and
// per-operation profile.
//
// Usage:
//
//	lumen -list-ops                         # the operation catalogue
//	lumen -list-algs                        # the ported algorithms
//	lumen -alg A14 -train F1 -test F4       # built-in algorithm, registry datasets
//	lumen -pipeline my.json -train F1       # template file; same-dataset split
//	lumen -alg A06 -train-pcap a.pcap -train-labels a.csv -test-pcap b.pcap -test-labels b.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lumen/internal/algorithms"
	"lumen/internal/benchsuite"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
	"lumen/internal/report"
)

// options is the whole command line.
type options struct {
	listOps, listAlgs, profile                   bool
	alg, pipeline, train, test                   string
	trainPcap, trainLabels, testPcap, testLabels string
	saveModel, traceOut, metricsOut              string
	scale                                        float64
	seed                                         int64
}

// flags declares the whole command line (README.md "lumen flags" is
// pinned to it by TestREADMEFlagTable).
func flags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("lumen", flag.ExitOnError)
	fs.BoolVar(&o.listOps, "list-ops", false, "print the op table (signature, stream class per mode, traits, doc) and exit")
	fs.BoolVar(&o.listAlgs, "list-algs", false, "list ported algorithms and exit")
	fs.StringVar(&o.alg, "alg", "", "built-in algorithm ID (A00-A15, AM01-AM03)")
	fs.StringVar(&o.pipeline, "pipeline", "", "pipeline template JSON file")
	fs.StringVar(&o.train, "train", "", "training dataset ID (F0-F9, P0-P4)")
	fs.StringVar(&o.test, "test", "", "test dataset ID (defaults to -train with a split)")
	fs.StringVar(&o.trainPcap, "train-pcap", "", "training pcap file (with -train-labels)")
	fs.StringVar(&o.trainLabels, "train-labels", "", "training label CSV (index,label,attack)")
	fs.StringVar(&o.testPcap, "test-pcap", "", "test pcap file (with -test-labels)")
	fs.StringVar(&o.testLabels, "test-labels", "", "test label CSV")
	fs.Float64Var(&o.scale, "scale", 1.0, "dataset scale for registry datasets")
	fs.Int64Var(&o.seed, "seed", 7, "random seed")
	fs.BoolVar(&o.profile, "profile", false, "print per-operation time/alloc profile")
	fs.StringVar(&o.saveModel, "save-model", "", "write the fitted model as JSON (tree-family and naive Bayes)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON of the run to this file (open at ui.perfetto.dev); also prints per-model loss sparklines")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write Prometheus text-format metrics to this file after the run")
	return fs
}

func main() {
	var o options
	flags(&o).Parse(os.Args[1:])
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "lumen:", err)
		os.Exit(1)
	}
}

// run lists what -list-ops or -list-algs asks for, or trains and tests
// the chosen pipeline and prints its scores.
func run(o options) error {
	if o.listOps {
		return core.WriteOpTable(os.Stdout)
	}
	if o.listAlgs {
		t := &report.Table{Header: []string{"ID", "Granularity", "Ref", "Description"}}
		for _, a := range append(algorithms.All(), algorithms.Modified()...) {
			t.Add(a.ID, a.Granularity().String(), a.Ref, a.Desc)
		}
		fmt.Print(t)
		return nil
	}
	var p *core.Pipeline
	switch {
	case o.alg != "":
		alg, ok := algorithms.Get(o.alg)
		if !ok {
			return fmt.Errorf("unknown algorithm %q (try -list-algs)", o.alg)
		}
		p = alg.Pipeline
	case o.pipeline != "":
		var err error
		p, err = core.LoadPipeline(o.pipeline)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -alg or -pipeline (or -list-ops / -list-algs)")
	}

	trainDS, testDS, err := resolveData(o)
	if err != nil {
		return err
	}

	eng := core.NewEngine(p)
	eng.Seed = o.seed
	// Allocation sampling is opt-in; wall timing is always recorded.
	eng.Profiling = o.profile
	var tracer *obs.Tracer
	if o.traceOut != "" {
		tracer = obs.NewTracer()
		eng.Span = tracer.Start("run:"+p.Name, 0)
	}
	if o.metricsOut != "" {
		eng.Metrics = obs.NewMetrics()
	}
	fmt.Printf("pipeline %q (%s granularity)\n", p.Name, p.Granularity)
	if g, err := p.Granular(); err == nil && (!dataset.CanFaithfullyRun(g, trainDS.Granularity) || !dataset.CanFaithfullyRun(g, testDS.Granularity)) {
		fmt.Println("warning: the dataset's label granularity is finer than the pipeline's classification granularity;")
		fmt.Println("         this run is not faithful in the paper's sense unless labels are constant per flow (§2.1)")
	}
	fmt.Printf("training on %s (%d packets)...\n", trainDS.Name, len(trainDS.Packets))
	if err := eng.Train(trainDS); err != nil {
		return err
	}
	res, err := eng.Test(testDS)
	if err != nil {
		return err
	}
	fmt.Printf("tested on %s: %d units\n\n", testDS.Name, len(res.Truth))
	c := mlkit.NewConfusion(res.Truth, res.Pred)
	fmt.Printf("precision: %.1f%%\n", c.Precision()*100)
	fmt.Printf("recall:    %.1f%%\n", c.Recall()*100)
	fmt.Printf("accuracy:  %.1f%%\n", c.Accuracy()*100)
	fmt.Printf("f1:        %.1f%%\n", c.F1()*100)
	if res.Scores != nil {
		fmt.Printf("auc:       %.1f%%\n", mlkit.AUC(res.Truth, res.Scores)*100)
	}
	if o.saveModel != "" {
		clf, ok := eng.TrainedModel()
		if !ok {
			return fmt.Errorf("no fitted model to save")
		}
		if err := mlkit.SaveModel(o.saveModel, clf); err != nil {
			return fmt.Errorf("saving model: %w", err)
		}
		fmt.Println("saved model to", o.saveModel)
	}
	if o.profile {
		fmt.Println("\nper-operation profile (test run):")
		t := &report.Table{Header: []string{"op", "output", "wall", "allocs", "rows"}}
		for _, st := range eng.Profile {
			t.Add(st.Func, st.Output, st.Wall.String(), fmt.Sprintf("%dB", st.Allocs), fmt.Sprintf("%d", st.OutRows))
		}
		fmt.Print(t)
	}
	if tracer != nil {
		eng.Span.End()
		printLossCurves(tracer)
		if err := tracer.WriteChromeTraceFile(o.traceOut); err != nil {
			return err
		}
		fmt.Println("wrote Chrome trace to", o.traceOut, "(open at ui.perfetto.dev)")
	}
	if o.metricsOut != "" {
		if err := eng.Metrics.WritePrometheusFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Println("wrote Prometheus metrics to", o.metricsOut)
	}
	return nil
}

// printLossCurves renders each trained model's per-epoch loss curve as a
// sparkline, reconstructed from the trace's "epoch:<model>" spans.
func printLossCurves(tracer *obs.Tracer) {
	losses := map[string][]float64{}
	var order []string
	for _, sp := range tracer.Spans() {
		model, ok := strings.CutPrefix(sp.Name, "epoch:")
		if !ok {
			continue
		}
		loss, ok := sp.Attrs["loss"].(float64)
		if !ok {
			continue
		}
		if _, seen := losses[model]; !seen {
			order = append(order, model)
		}
		losses[model] = append(losses[model], loss)
	}
	if len(order) == 0 {
		return
	}
	fmt.Println("\ntraining loss curves:")
	for _, model := range order {
		l := losses[model]
		fmt.Printf("  %-12s %s  (%d epochs, %.4g -> %.4g)\n",
			model, report.Sparkline(l), len(l), l[0], l[len(l)-1])
	}
}

// resolveData loads train/test datasets from the registry or from pcap
// files with label CSVs. When only -train is given, the dataset is split
// into interleaved train/test halves.
func resolveData(o options) (tr, te *dataset.Labeled, err error) {
	if o.trainPcap != "" {
		if tr, err = LoadLabeledPcap(o.trainPcap, o.trainLabels); err != nil {
			return nil, nil, fmt.Errorf("train pcap: %w", err)
		}
		if o.testPcap == "" {
			tr, te = benchsuite.InterleaveSplit(tr)
			return tr, te, nil
		}
		if te, err = LoadLabeledPcap(o.testPcap, o.testLabels); err != nil {
			return nil, nil, fmt.Errorf("test pcap: %w", err)
		}
		return tr, te, nil
	}
	if o.train == "" {
		return nil, nil, fmt.Errorf("need -train (dataset ID) or -train-pcap")
	}
	spec, ok := dataset.Get(o.train)
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", o.train)
	}
	tr, te = benchsuite.InterleaveSplit(spec.Generate(o.scale))
	if o.test != "" && o.test != o.train {
		teSpec, ok := dataset.Get(o.test)
		if !ok {
			return nil, nil, fmt.Errorf("unknown dataset %q", o.test)
		}
		_, te = benchsuite.InterleaveSplit(teSpec.Generate(o.scale))
	}
	return tr, te, nil
}
