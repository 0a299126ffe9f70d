package mlkit

import (
	"math"
	"testing"
)

func TestPCARecoversSubspace(t *testing.T) {
	// Data on a 1-D line in 3-D space plus tiny noise.
	rng := NewRNG(103)
	var X [][]float64
	for i := 0; i < 300; i++ {
		s := rng.NormFloat64()
		X = append(X, []float64{
			s + rng.NormFloat64()*0.01,
			2*s + rng.NormFloat64()*0.01,
			-s + rng.NormFloat64()*0.01,
		})
	}
	p := &PCA{}
	if err := p.Fit(X); err != nil {
		t.Fatal(err)
	}
	if p.Components() != 1 {
		t.Fatalf("components = %d, want 1 (95%% variance on a line)", p.Components())
	}
	// On-line points score low; off-line points high.
	on := p.Score([][]float64{{1, 2, -1}}, nil)
	off := p.Score([][]float64{{1, -2, 1}}, nil)
	if on[0] >= off[0] {
		t.Errorf("on-subspace score %v should be below off-subspace %v", on[0], off[0])
	}
}

func TestPCATransformShape(t *testing.T) {
	rng := NewRNG(107)
	X := make([][]float64, 50)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	p := &PCA{K: 2}
	if err := p.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := p.Transform(X[:5])
	if len(out) != 5 || len(out[0]) != 2 {
		t.Fatalf("transform shape %dx%d, want 5x2", len(out), len(out[0]))
	}
}

func TestGridSearchFindsDepth(t *testing.T) {
	X, y := xorData(600, 109)
	gs := &GridSearch{
		New: func(p map[string]float64) Classifier {
			return &DecisionTree{MaxDepth: int(p["depth"]), Seed: 1}
		},
		Grid: map[string][]float64{"depth": {1, 8}},
		Seed: 1,
	}
	if err := gs.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Depth 1 cannot express XOR; the search must pick depth 8.
	if got := gs.bestParams["depth"]; got != 8 {
		t.Errorf("best depth = %v, want 8", got)
	}
	if acc := Accuracy(y, gs.Predict(X)); acc < 0.9 {
		t.Errorf("refit accuracy = %.3f, want >= 0.9", acc)
	}
	if gs.bestScore <= 0 {
		t.Errorf("best score = %v, want > 0", gs.bestScore)
	}
}

func TestGridSearchCartesianProduct(t *testing.T) {
	grid := map[string][]float64{"a": {1, 2, 3}, "b": {10, 20}}
	got := expandGrid(grid)
	if len(got) != 6 {
		t.Fatalf("expanded %d assignments, want 6", len(got))
	}
	seen := map[[2]float64]bool{}
	for _, a := range got {
		seen[[2]float64{a["a"], a["b"]}] = true
	}
	if len(seen) != 6 {
		t.Errorf("assignments not distinct: %v", got)
	}
	if n := len(expandGrid(nil)); n != 1 {
		t.Errorf("empty grid should expand to one empty assignment, got %d", n)
	}
}

func TestGridSearchErrors(t *testing.T) {
	gs := &GridSearch{}
	if err := gs.Fit([][]float64{{1}}, []int{0}); err == nil {
		t.Error("nil New should error")
	}
}

func TestPermutationImportanceIdentifiesSignal(t *testing.T) {
	// Feature 0 fully determines the label; feature 1 is pure noise.
	rng := NewRNG(113)
	X := make([][]float64, 400)
	y := make([]int, 400)
	for i := range X {
		sig := rng.NormFloat64()
		X[i] = []float64{sig, rng.NormFloat64()}
		if sig > 0 {
			y[i] = 1
		}
	}
	tr := &DecisionTree{Seed: 1}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp, err := PermutationImportance(tr, X, y, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imp[0] < 0.3 {
		t.Errorf("signal feature importance %v, want >= 0.3", imp[0])
	}
	if math.Abs(imp[1]) > 0.1 {
		t.Errorf("noise feature importance %v, want ~0", imp[1])
	}
	top := TopFeatures([]string{"signal", "noise"}, imp, 1)
	if len(top) != 1 || top[0].Name != "signal" {
		t.Errorf("top feature = %+v, want signal", top)
	}
}

func TestPermutationImportanceRestoresInput(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	y := []int{0, 0, 1, 1}
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	orig := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	if _, err := PermutationImportance(tr, X, y, 2, 1); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		for j := range X[i] {
			if X[i][j] != orig[i][j] {
				t.Fatal("PermutationImportance mutated its input")
			}
		}
	}
}

func TestPCADetectorInPipeline(t *testing.T) {
	// PCA as the detector of a DetectorPipeline (the A12 baseline).
	rng := NewRNG(127)
	var X [][]float64
	for i := 0; i < 200; i++ {
		s := rng.Float64()
		X = append(X, []float64{s, 2 * s, 3 * s})
	}
	dp := &DetectorPipeline{
		Steps:    []Transformer{&StandardScaler{}},
		Detector: &PCA{K: 1},
	}
	if err := dp.Fit(X); err != nil {
		t.Fatal(err)
	}
	normal := dp.Score(X[:5], nil)
	anom := dp.Score([][]float64{{1, 0, 0}}, nil)
	for _, s := range normal {
		if s >= anom[0] {
			t.Errorf("normal score %v not below anomaly %v", s, anom[0])
		}
	}
}
