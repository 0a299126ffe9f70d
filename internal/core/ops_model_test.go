package core

import (
	"math"
	"path/filepath"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/mlkit"
)

// modelTestData draws a small, learnable binary matrix.
func modelTestData(n int) ([][]float64, []int) {
	rng := mlkit.NewRNG(41)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		label := i % 2
		row := make([]float64, 6)
		for j := range row {
			row[j] = 0.5*rng.NormFloat64() + float64(label*(j%3))
		}
		X[i], y[i] = row, label
	}
	return X, y
}

// TestPredictProbaEqualsPredictThenProba pins the fused contract for
// every model the train op can build — fused implementations and the
// two-call fallback alike: mlkit.PredictProba returns exactly what
// Predict followed by Proba return, and nil scores exactly when the
// model is not a ProbClassifier.
func TestPredictProbaEqualsPredictThenProba(t *testing.T) {
	X, y := modelTestData(160)
	specs := map[string]ModelSpec{}
	for _, mt := range ModelTypes() {
		specs[mt] = ModelSpec{Type: mt, Params: map[string]any{"n_trees": 8.0, "epochs": 3.0}}
	}
	for _, mt := range []string{"random_forest", "decision_tree", "knn"} {
		tune := map[string]any{"max_depth": []any{2.0, 5.0}}
		if mt == "knn" {
			tune = map[string]any{"k": []any{1.0, 3.0}}
		}
		specs[mt+"+tune"] = ModelSpec{Type: mt, Params: map[string]any{"tune": tune}}
	}
	check := func(t *testing.T, c mlkit.Classifier) {
		t.Helper()
		wantPred := c.Predict(X)
		pc, hasProba := c.(mlkit.ProbClassifier)
		var wantProba []float64
		if hasProba {
			wantProba = pc.Proba(X)
		}
		pred, proba := mlkit.PredictProba(c, X)
		if len(pred) != len(wantPred) {
			t.Fatalf("PredictProba returned %d labels, Predict %d", len(pred), len(wantPred))
		}
		for i := range wantPred {
			if pred[i] != wantPred[i] {
				t.Fatalf("row %d: PredictProba label %d, Predict %d", i, pred[i], wantPred[i])
			}
		}
		if (proba == nil) != (wantProba == nil) || len(proba) != len(wantProba) {
			t.Fatalf("PredictProba returned %d scores (nil=%v), Proba %d (nil=%v)", len(proba), proba == nil, len(wantProba), wantProba == nil)
		}
		for i := range wantProba {
			if math.Float64bits(proba[i]) != math.Float64bits(wantProba[i]) {
				t.Fatalf("row %d: PredictProba score %v, Proba %v", i, proba[i], wantProba[i])
			}
		}
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) {
			c, err := buildClassifier(spec, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			check(t, c)
			// The wrapper a resident pipeline puts around the model.
			check(t, mlkit.NewSwapHandle(c))
		})
	}
	t.Run("scoreless_behind_swap_handle", func(t *testing.T) {
		check(t, mlkit.NewSwapHandle(invertClassifier{&mlkit.DecisionTree{}}))
		check(t, invertClassifier{&mlkit.DecisionTree{}})
	})
}

// countingClf counts scoring calls and records what each returned.
type countingClf struct {
	inner                 mlkit.ProbClassifier
	predicts, probas, fus int
	preds                 [][]int
	scores                [][]float64
}

func (c *countingClf) Fit(X [][]float64, y []int) error { return c.inner.Fit(X, y) }

func (c *countingClf) Predict(X [][]float64) []int {
	c.predicts++
	out := c.inner.Predict(X)
	c.preds = append(c.preds, out)
	return out
}

func (c *countingClf) Proba(X [][]float64) []float64 {
	c.probas++
	out := c.inner.Proba(X)
	c.scores = append(c.scores, out)
	return out
}

// fusedCountingClf adds the fused entry point to countingClf.
type fusedCountingClf struct{ *countingClf }

func (c fusedCountingClf) PredictProba(X [][]float64) ([]int, []float64) {
	c.fus++
	pred, proba := mlkit.PredictProba(c.inner, X)
	c.preds = append(c.preds, pred)
	c.scores = append(c.scores, proba)
	return pred, proba
}

// TestShadowedChunkScoresEachModelOnce drives a shadowed SwapHandle
// through the train op. Before the fused path a shadowed chunk scored
// the active model three times (Predict, Proba inside Predict for the
// divergence, Proba again from the op) and the shadow twice; now each
// model is scored once per chunk, and the SwapStats tally is the one the
// old sequence produced.
func TestShadowedChunkScoresEachModelOnce(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.05)
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	cfg := StreamConfig{ChunkRows: 64}
	if err := eng.TrainStream(ds, cfg); err != nil {
		t.Fatal(err)
	}
	want, err := eng.TestStream(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chunks := eng.LastStream.Chunks
	trained, _ := eng.TrainedModel()
	base := trained.(mlkit.ProbClassifier)
	// A depth-1 candidate, so the two models disagree on some rows.
	p2 := fieldPipeline()
	p2.Ops[3].Params["max_depth"] = 1
	eng2 := NewEngine(p2)
	eng2.Seed = 7
	if err := eng2.TrainStream(ds, cfg); err != nil {
		t.Fatal(err)
	}
	stump, _ := eng2.TrainedModel()

	for _, fused := range []bool{true, false} {
		active := &countingClf{inner: base}
		shadow := &countingClf{inner: stump.(mlkit.ProbClassifier)}
		var a, s mlkit.Classifier = active, shadow
		if fused {
			a, s = fusedCountingClf{active}, fusedCountingClf{shadow}
		}
		h := mlkit.NewSwapHandle(a)
		if err := h.StartShadow(s); err != nil {
			t.Fatal(err)
		}
		if err := eng.ReplaceModel(h); err != nil {
			t.Fatal(err)
		}
		got, err := eng.TestStream(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, want, got, "shadowed run")

		for name, c := range map[string]*countingClf{"active": active, "shadow": shadow} {
			if fused {
				if c.fus != chunks || c.predicts != 0 || c.probas != 0 {
					t.Errorf("fused %s model: %d PredictProba, %d Predict, %d Proba calls over %d chunks, want one PredictProba each",
						name, c.fus, c.predicts, c.probas, chunks)
				}
			} else if c.predicts != chunks || c.probas != chunks || c.fus != 0 {
				t.Errorf("two-call %s model: %d Predict, %d Proba calls over %d chunks, want one of each per chunk",
					name, c.predicts, c.probas, chunks)
			}
		}

		// The tally the pre-fusion handle kept: per chunk, one Chunks
		// tick, every row compared, every score pair accumulated in row
		// order.
		var wantStats mlkit.SwapStats
		for k := range active.preds {
			wantStats.Chunks++
			wantStats.Rows += len(active.preds[k])
			for i := range active.preds[k] {
				if active.preds[k][i] != shadow.preds[k][i] {
					wantStats.Disagree++
				}
			}
			for i := range active.scores[k] {
				wantStats.ScoreRows++
				wantStats.AbsScoreSum += math.Abs(active.scores[k][i] - shadow.scores[k][i])
			}
		}
		if st := h.Stats(); st != wantStats {
			t.Errorf("fused=%v: SwapStats = %+v, want %+v", fused, st, wantStats)
		}
		if wantStats.Chunks != chunks || wantStats.Rows != len(want.Pred) || wantStats.Disagree == 0 || wantStats.ScoreRows != wantStats.Rows {
			t.Errorf("fused=%v: tally %+v does not cover %d chunks / %d rows with some disagreement", fused, wantStats, chunks, len(want.Pred))
		}
	}
	if err := eng.ReplaceModel(trained); err != nil {
		t.Fatal(err)
	}
}

// TestNewTrainableModelBuildsTheTrainedOne: the daemon's retrain fits
// the model the train op reads, not the first model op in the template.
func TestNewTrainableModelBuildsTheTrainedOne(t *testing.T) {
	p := fieldPipeline()
	p.Ops = append([]OpSpec{{Func: "model", Output: "unused", Params: map[string]any{"model_type": "gaussian_nb"}}}, p.Ops...)
	clf, err := NewEngine(p).NewTrainableModel()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := clf.(*mlkit.DecisionTree); !ok {
		t.Fatalf("NewTrainableModel built %T, want the train op's *mlkit.DecisionTree", clf)
	}
}

// TestModelParamsReachEveryCandidate: tuned and untuned models are built
// by one constructor per model_type. Every grid candidate of
// my-detector's tuned forest keeps the template's fixed n_trees, and an
// untuned decision_tree reads min_samples_leaf as its tuned candidates
// do.
func TestModelParamsReachEveryCandidate(t *testing.T) {
	p, err := LoadPipeline(filepath.Join("..", "..", "examples", "custom-algorithm", "my-detector.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec ModelSpec
	for _, op := range p.Ops {
		if op.Func == "model" {
			spec = ModelSpec{Type: params(op.Params).str("model_type", ""), Params: op.Params}
		}
	}
	c, err := buildClassifier(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := c.(*mlkit.GridSearch)
	if !ok || len(gs.Grid["max_depth"]) == 0 {
		t.Fatalf("my-detector's model built %T with grid %v, want a grid search over max_depth", c, gs.Grid)
	}
	for _, d := range gs.Grid["max_depth"] {
		rf, ok := gs.New(map[string]float64{"max_depth": d}).(*mlkit.RandomForest)
		if !ok || rf.NTrees != 40 || rf.MaxDepth != int(d) || rf.Seed != 7 {
			t.Fatalf("candidate max_depth %v = %+v, want a 40-tree forest of that depth", d, rf)
		}
	}
	c, err = buildClassifier(ModelSpec{Type: "decision_tree", Params: map[string]any{"max_depth": 3.0, "min_samples_leaf": 5.0}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dt, ok := c.(*mlkit.DecisionTree); !ok || dt.MaxDepth != 3 || dt.MinSamplesLeaf != 5 {
		t.Fatalf("untuned decision_tree = %+v, want max_depth 3, min_samples_leaf 5", c)
	}
}
