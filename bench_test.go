// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation
// benches for the framework's design choices. Figure benches report the
// headline numbers of each figure as custom metrics, so `go test
// -bench=.` regenerates the paper's result shapes; cmd/lumenbench prints
// the full tables and heatmaps.
package lumen

import (
	"math"
	"slices"
	"testing"
	"time"

	"lumen/internal/algorithms"
	"lumen/internal/benchsuite"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/features"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/report"
)

// benchScale keeps figure benches tractable; cmd/lumenbench defaults to
// a larger scale for the full reproduction.
const benchScale = 0.25

func newSuite(b *testing.B, algs, dss []string) *benchsuite.Suite {
	b.Helper()
	s, err := benchsuite.New(benchsuite.Config{Scale: benchScale, Seed: 7, AlgIDs: algs, DatasetIDs: dss})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1 regenerates the literature survey table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if benchsuite.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1a regenerates the comparability analysis; the paper's
// point is that ~half the surveyed algorithms admit no direct comparison.
func BenchmarkFig1a(b *testing.B) {
	var zf float64
	for i := 0; i < b.N; i++ {
		_ = benchsuite.Fig1a()
		zf = benchsuite.Fig1aZeroFraction()
	}
	b.ReportMetric(zf*100, "zero-comparison-%")
}

// BenchmarkFig5 regenerates the per-attack precision heatmap from
// same-dataset runs of all 16 algorithms.
func BenchmarkFig5(b *testing.B) {
	var filled float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, nil, nil)
		s.RunSameDataset()
		h := s.Fig5()
		filled = 0
		total := 0
		for r := range h.RowNames {
			for c := range h.ColNames {
				total++
				if !math.IsNaN(h.Cells[r][c]) {
					filled++
				}
			}
		}
		filled /= float64(total)
	}
	b.ReportMetric(filled*100, "cells-filled-%")
}

// BenchmarkFig6 regenerates the improvement heatmap: merged-dataset
// training for A08/A09/A13/A14 plus the synthesized AM01–AM03.
func BenchmarkFig6(b *testing.B) {
	var meanAM float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, []string{"A08", "A09", "A13", "A14"}, datasetIDs(dataset.ConnectionG))
		s.RunSameDataset()
		res, err := s.Fig6(0.10)
		if err != nil {
			b.Fatal(err)
		}
		meanAM = (res.MeanPrecision["AM01"] + res.MeanPrecision["AM02"] + res.MeanPrecision["AM03"]) / 3
	}
	b.ReportMetric(meanAM*100, "mean-AM-precision-%")
}

// BenchmarkFig7 regenerates the distance-from-best distributions
// (Observation 1: no single best algorithm).
func BenchmarkFig7(b *testing.B) {
	var universal float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, nil, nil)
		s.RunAll()
		rows := s.Fig7()
		universal = 0
		for _, r := range rows {
			_, _, _, _, max := report.Dist(r.PrecDiff).Summary()
			if max < 1e-9 { // an always-best algorithm
				universal++
			}
		}
	}
	b.ReportMetric(universal, "universally-best-algs")
}

// BenchmarkFig8 regenerates the same-dataset score distributions
// (Fig. 1b / Fig. 8).
func BenchmarkFig8(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, nil, nil)
		s.RunSameDataset()
		prec, _ := s.Fig8()
		var meds []float64
		for _, d := range prec {
			_, _, m, _, _ := d.Summary()
			meds = append(meds, m)
		}
		med = mlkit.Quantile(meds, 0.5)
	}
	b.ReportMetric(med*100, "median-same-precision-%")
}

// BenchmarkFig9 regenerates the cross-dataset distributions (Fig. 1c /
// Fig. 9) — the collapse relative to Fig. 8 is Observation 2.
func BenchmarkFig9(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, nil, nil)
		s.RunCrossDataset()
		prec, _ := s.Fig9()
		var meds []float64
		for _, d := range prec {
			_, _, m, _, _ := d.Summary()
			meds = append(meds, m)
		}
		med = mlkit.Quantile(meds, 0.5)
	}
	b.ReportMetric(med*100, "median-cross-precision-%")
}

// BenchmarkFig10 regenerates the train×test median matrices
// (Observation 3: asymmetry; the Torii dataset F5 is hard to reach).
func BenchmarkFig10(b *testing.B) {
	var f5RowMax, f5ColMean float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, nil, datasetIDs(dataset.ConnectionG))
		s.RunAll()
		hp, _ := s.Fig10()
		f5RowMax, f5ColMean = 0, 0
		n := 0
		for _, tr := range datasetIDs(dataset.ConnectionG) {
			if tr == "F5" {
				continue
			}
			if v := cell(hp, "F5", tr); !math.IsNaN(v) && v > f5RowMax {
				f5RowMax = v // best precision any training set achieves ON F5
			}
			if v := cell(hp, tr, "F5"); !math.IsNaN(v) {
				f5ColMean += v // how a model trained on F5 does elsewhere
				n++
			}
		}
		if n > 0 {
			f5ColMean /= float64(n)
		}
	}
	b.ReportMetric(f5RowMax*100, "best-precision-on-F5-%")
	b.ReportMetric(f5ColMean*100, "train-on-F5-mean-%")
}

// cell reads a heatmap value by row and column name (NaN when absent).
func cell(h *report.Heatmap, row, col string) float64 {
	ri, ci := slices.Index(h.RowNames, row), slices.Index(h.ColNames, col)
	if ri < 0 || ci < 0 {
		return math.NaN()
	}
	return h.Cells[ri][ci]
}

// datasetIDs returns the IDs of the registered datasets of one
// granularity, in registry order.
func datasetIDs(g dataset.Granularity) []string {
	var ids []string
	for _, spec := range dataset.Registry() {
		if spec.Granularity == g {
			ids = append(ids, spec.ID)
		}
	}
	return ids
}

// BenchmarkObs2 reports how many algorithms drop below 20% precision on
// at least one dataset, same- vs cross-dataset.
func BenchmarkObs2(b *testing.B) {
	var sp, cp int
	for i := 0; i < b.N; i++ {
		s := newSuite(b, nil, nil)
		s.RunAll()
		sp, _, cp, _ = s.Obs2(0.2)
	}
	b.ReportMetric(float64(sp), "same-precision-drops")
	b.ReportMetric(float64(cp), "cross-precision-drops")
}

// BenchmarkObs5 reports the merged-training improvement of the Fig. 6
// rows over their same-dataset means.
func BenchmarkObs5(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, []string{"A08", "A09", "A13", "A14"}, datasetIDs(dataset.ConnectionG))
		s.RunSameDataset()
		res, err := s.Fig6(0.10)
		if err != nil {
			b.Fatal(err)
		}
		best = math.Inf(-1)
		for _, d := range s.Obs5(res) {
			if d > best {
				best = d
			}
		}
	}
	b.ReportMetric(best*100, "best-merge-improvement-%")
}

// BenchmarkValidation regenerates the §5.2 correctness table.
func BenchmarkValidation(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := newSuite(b, []string{"A07", "A10", "A14"},
			[]string{"F0", "F1", "F2", "F4", "F5", "F6", "F7", "F8", "F9"})
		rows, err := s.Validate()
		if err != nil {
			b.Fatal(err)
		}
		gap = 0
		for _, r := range rows {
			gap += math.Abs(r.Measured - r.Reported)
		}
		gap /= float64(len(rows))
	}
	b.ReportMetric(gap*100, "mean-abs-gap-%")
}

// --- per-algorithm benches: training cost of representative pipelines ---

func benchAlgorithm(b *testing.B, id, ds string) {
	spec, ok := dataset.Get(ds)
	if !ok {
		b.Fatal("no dataset", ds)
	}
	full := spec.Generate(benchScale)
	train, test := benchsuite.InterleaveSplit(full)
	alg, ok := algorithms.Get(id)
	if !ok {
		b.Fatal("no algorithm", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(alg.Pipeline)
		eng.Seed = int64(i)
		if err := eng.Train(train); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Test(test); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgKitsune(b *testing.B)  { benchAlgorithm(b, "A06", "P1") }
func BenchmarkAlgNprint(b *testing.B)   { benchAlgorithm(b, "A02", "P0") }
func BenchmarkAlgZeekRF(b *testing.B)   { benchAlgorithm(b, "A14", "F1") }
func BenchmarkAlgOCSVM(b *testing.B)    { benchAlgorithm(b, "A07", "F4") }
func BenchmarkAlgSmartdet(b *testing.B) { benchAlgorithm(b, "A10", "F1") }

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationColumnar compares aggregating over a columnar frame
// against a row-of-maps layout, the justification for core.Frame.
func BenchmarkAblationColumnar(b *testing.B) {
	const n = 20000
	col := make([]float64, n)
	rows := make([]map[string]float64, n)
	for i := 0; i < n; i++ {
		col[i] = float64(i % 97)
		rows[i] = map[string]float64{"len": col[i], "ts": float64(i), "port": 80}
	}
	b.Run("columnar", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			var s float64
			for _, v := range col {
				s += v
			}
			sink = s
		}
		_ = sink
	})
	b.Run("row-maps", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			var s float64
			for _, r := range rows {
				s += r["len"]
			}
			sink = s
		}
		_ = sink
	})
}

// BenchmarkAblationSharedExtract compares one field_extract pass pulling
// five fields against five single-field passes — the paper's shared
// size+time extraction.
func BenchmarkAblationSharedExtract(b *testing.B) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(benchScale)
	p := func(fields []string) *core.Pipeline {
		return &core.Pipeline{
			Name: "extract", Granularity: "packet",
			Ops: []core.OpSpec{
				{Func: "field_extract", Input: []string{core.InputName}, Output: "f",
					Params: map[string]any{"fields": fields}},
				{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 2}},
				{Func: "train", Input: []string{"m", "f"}, Output: "t"},
			},
		}
	}
	all := []string{"ts", "len", "src_port", "dst_port", "ttl"}
	b.Run("one-pass-5-fields", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := core.NewEngine(p(all))
			if err := eng.Train(ds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("five-single-field-passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range all {
				eng := core.NewEngine(p([]string{f}))
				if err := eng.Train(ds); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationParallelism compares the suite's worker-pool run
// (the Ray stand-in) against serial execution.
func BenchmarkAblationParallelism(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			s, err := benchsuite.New(benchsuite.Config{
				Scale: benchScale, Seed: 7, Workers: workers,
				AlgIDs:     []string{"A13", "A14", "A15"},
				DatasetIDs: []string{"F1", "F4", "F6", "F9"},
			})
			if err != nil {
				b.Fatal(err)
			}
			s.RunAll()
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblationProfiling measures a multi-worker suite run with
// per-op allocation profiling off (the default — Engine.run performs no
// memory-stat reads at all) against profiling on. The seed code issued
// two stop-the-world runtime.ReadMemStats calls per op unconditionally,
// which serialized the whole worker pool; "profiling-off" here is the
// direct comparison point for that behaviour.
func BenchmarkAblationProfiling(b *testing.B) {
	run := func(b *testing.B, profile bool) {
		for i := 0; i < b.N; i++ {
			s, err := benchsuite.New(benchsuite.Config{
				Scale: benchScale, Seed: 7, Profile: profile,
				AlgIDs:     []string{"A13", "A14", "A15"},
				DatasetIDs: []string{"F1", "F4", "F6", "F9"},
			})
			if err != nil {
				b.Fatal(err)
			}
			s.RunAll()
			if profile && len(s.OpProfiles()) == 0 {
				b.Fatal("profiling on but no per-op profile aggregated")
			}
		}
	}
	b.Run("profiling-off", func(b *testing.B) { run(b, false) })
	b.Run("profiling-on", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDampedStats compares O(1) damped incremental stats
// (Kitsune's AfterImage) against recomputing a sliding window per packet.
func BenchmarkAblationDampedStats(b *testing.B) {
	const n = 5000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%251) + 0.5
	}
	b.Run("incremental", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			st := &features.IncStat{Lambda: 0.1}
			for j, v := range vals {
				st.Insert(v, float64(j)*0.01)
				sink = st.Std()
			}
		}
		_ = sink
	})
	b.Run("window-recompute", func(b *testing.B) {
		const window = 256
		var sink float64
		for i := 0; i < b.N; i++ {
			for j := range vals {
				lo := j - window
				if lo < 0 {
					lo = 0
				}
				w := vals[lo : j+1]
				m := mlkit.Mean(w)
				var s float64
				for _, v := range w {
					s += (v - m) * (v - m)
				}
				sink = math.Sqrt(s / float64(len(w)))
			}
		}
		_ = sink
	})
}

// --- substrate micro-benches ---

func BenchmarkPacketDecode(b *testing.B) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.2)
	raws := make([][]byte, len(ds.Packets))
	for i, p := range ds.Packets {
		raws[i] = p.Data
	}
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		raw := raws[i%len(raws)]
		p := netpkt.Decode(raw, netpkt.LinkEthernet, time.Time{})
		if p == nil {
			b.Fatal("decode failed")
		}
		bytes += int64(len(raw))
	}
	b.SetBytes(bytes / int64(b.N))
}

func BenchmarkKitsuneFeatureExtraction(b *testing.B) {
	spec, _ := dataset.Get("P1")
	ds := spec.Generate(0.3)
	alg, _ := algorithms.Get("A06")
	// Only the feature op, not training: build a one-op prefix pipeline.
	p := &core.Pipeline{
		Name: "kitsune-feats", Granularity: "packet",
		Ops: []core.OpSpec{
			alg.Pipeline.Ops[0],
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 1}},
			{Func: "train", Input: []string{"m", alg.Pipeline.Ops[0].Output}, Output: "t"},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(p)
		if err := eng.Train(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestFit(b *testing.B) {
	rng := mlkit.NewRNG(1)
	const n, d = 2000, 20
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if row[0]+row[1] > 0 {
			y[i] = 1
		}
		X[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &mlkit.RandomForest{NTrees: 20, Seed: int64(i)}
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSharedCache measures the suite with and without the
// shared intermediate-result cache — the paper's "intermediate results
// are shared across algorithms" optimization.
func BenchmarkAblationSharedCache(b *testing.B) {
	run := func(b *testing.B, noCache bool) {
		for i := 0; i < b.N; i++ {
			s, err := benchsuite.New(benchsuite.Config{
				Scale: benchScale, Seed: 7, NoCache: noCache,
				AlgIDs:     []string{"A07", "A08", "A09", "A13", "A14", "A15"},
				DatasetIDs: []string{"F1", "F4", "F6", "F9"},
			})
			if err != nil {
				b.Fatal(err)
			}
			s.RunAll()
			if !noCache {
				st := s.CacheStats()
				if st.Hits == 0 {
					b.Fatal("cache never hit")
				}
				if st.Misses != st.Entries {
					b.Fatalf("cache computed %d keys but holds %d: singleflight dedup broken",
						st.Misses, st.Entries)
				}
			}
		}
	}
	b.Run("shared-cache", func(b *testing.B) { run(b, false) })
	b.Run("no-cache", func(b *testing.B) { run(b, true) })
}
