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

// The command line (README.md "lumen flags" is pinned to it by
// TestREADMEFlagTable).
var (
	listOps     = flag.Bool("list-ops", false, "print the op table (signature, stream class per mode, traits, doc) and exit")
	listAlgs    = flag.Bool("list-algs", false, "list ported algorithms and exit")
	algID       = flag.String("alg", "", "built-in algorithm ID (A00-A15, AM01-AM03)")
	pipelineF   = flag.String("pipeline", "", "pipeline template JSON file")
	trainID     = flag.String("train", "", "training dataset ID (F0-F9, P0-P4)")
	testID      = flag.String("test", "", "test dataset ID (defaults to -train with a split)")
	trainPcap   = flag.String("train-pcap", "", "training pcap file (with -train-labels)")
	trainLabels = flag.String("train-labels", "", "training label CSV (index,label,attack)")
	testPcap    = flag.String("test-pcap", "", "test pcap file (with -test-labels)")
	testLabels  = flag.String("test-labels", "", "test label CSV")
	scale       = flag.Float64("scale", 1.0, "dataset scale for registry datasets")
	seed        = flag.Int64("seed", 7, "random seed")
	profile     = flag.Bool("profile", false, "print per-operation time/alloc profile")
	saveModel   = flag.String("save-model", "", "write the fitted model as JSON (tree-family and naive Bayes)")
	traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run to this file (open at ui.perfetto.dev); also prints per-model loss sparklines")
	metricsOut  = flag.String("metrics-out", "", "write Prometheus text-format metrics to this file after the run")
)

func main() {
	flag.Parse()

	if *listOps {
		if err := core.WriteOpTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "lumen:", err)
			os.Exit(1)
		}
		return
	}
	if *listAlgs {
		t := &report.Table{Header: []string{"ID", "Granularity", "Ref", "Description"}}
		for _, a := range append(algorithms.All(), algorithms.Modified()...) {
			t.Add(a.ID, a.Granularity().String(), a.Ref, a.Desc)
		}
		fmt.Print(t)
		return
	}

	if err := run(*algID, *pipelineF, *trainID, *testID, *trainPcap, *trainLabels, *testPcap, *testLabels, *scale, *seed, *profile, *saveModel, *traceOut, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "lumen:", err)
		os.Exit(1)
	}
}

func run(algID, pipelineF, trainID, testID, trainPcap, trainLabels, testPcap, testLabels string, scale float64, seed int64, profile bool, saveModel, traceOut, metricsOut string) error {
	var p *core.Pipeline
	switch {
	case algID != "":
		alg, ok := algorithms.Get(algID)
		if !ok {
			return fmt.Errorf("unknown algorithm %q (try -list-algs)", algID)
		}
		p = alg.Pipeline
	case pipelineF != "":
		var err error
		p, err = core.LoadPipeline(pipelineF)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -alg or -pipeline (or -list-ops / -list-algs)")
	}

	trainDS, testDS, err := resolveData(trainID, testID, trainPcap, trainLabels, testPcap, testLabels, scale)
	if err != nil {
		return err
	}

	eng := core.NewEngine(p)
	eng.Seed = seed
	// Allocation sampling is opt-in; wall timing is always recorded.
	eng.Profiling = profile
	var tracer *obs.Tracer
	var root *obs.Span
	if traceOut != "" {
		tracer = obs.NewTracer()
		root = tracer.Start("run:"+p.Name, 0)
		eng.Span = root
	}
	if metricsOut != "" {
		eng.Metrics = obs.NewMetrics()
	}
	fmt.Printf("pipeline %q (%s granularity)\n", p.Name, p.Granularity)
	if g, err := p.Granular(); err == nil {
		if !dataset.CanFaithfullyRun(g, trainDS.Granularity) || !dataset.CanFaithfullyRun(g, testDS.Granularity) {
			fmt.Println("warning: the dataset's label granularity is finer than the pipeline's classification granularity;")
			fmt.Println("         this run is not faithful in the paper's sense unless labels are constant per flow (§2.1)")
		}
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
	if saveModel != "" {
		clf, ok := eng.TrainedModel()
		if !ok {
			return fmt.Errorf("no fitted model to save")
		}
		if err := mlkit.SaveModel(saveModel, clf); err != nil {
			return fmt.Errorf("saving model: %w", err)
		}
		fmt.Println("saved model to", saveModel)
	}
	if profile {
		fmt.Println("\nper-operation profile (test run):")
		t := &report.Table{Header: []string{"op", "output", "wall", "allocs", "rows"}}
		for _, st := range eng.Profile {
			t.Add(st.Func, st.Output, st.Wall.String(), fmt.Sprintf("%dB", st.Allocs), fmt.Sprintf("%d", st.OutRows))
		}
		fmt.Print(t)
	}
	if tracer != nil {
		root.End()
		printLossCurves(tracer)
		if err := tracer.WriteChromeTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Println("wrote Chrome trace to", traceOut, "(open at ui.perfetto.dev)")
	}
	if metricsOut != "" {
		if err := eng.Metrics.WritePrometheusFile(metricsOut); err != nil {
			return err
		}
		fmt.Println("wrote Prometheus metrics to", metricsOut)
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
func resolveData(trainID, testID, trainPcap, trainLabels, testPcap, testLabels string, scale float64) (*dataset.Labeled, *dataset.Labeled, error) {
	if trainPcap != "" {
		tr, err := LoadLabeledPcap(trainPcap, trainLabels)
		if err != nil {
			return nil, nil, fmt.Errorf("train pcap: %w", err)
		}
		if testPcap == "" {
			a, b := benchsuite.InterleaveSplit(tr)
			return a, b, nil
		}
		te, err := LoadLabeledPcap(testPcap, testLabels)
		if err != nil {
			return nil, nil, fmt.Errorf("test pcap: %w", err)
		}
		return tr, te, nil
	}
	if trainID == "" {
		return nil, nil, fmt.Errorf("need -train (dataset ID) or -train-pcap")
	}
	spec, ok := dataset.Get(trainID)
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", trainID)
	}
	full := spec.Generate(scale)
	if testID == "" || testID == trainID {
		a, b := benchsuite.InterleaveSplit(full)
		return a, b, nil
	}
	teSpec, ok := dataset.Get(testID)
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", testID)
	}
	teFull := teSpec.Generate(scale)
	_, te := benchsuite.InterleaveSplit(teFull)
	tr, _ := benchsuite.InterleaveSplit(full)
	return tr, te, nil
}
