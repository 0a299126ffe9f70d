package mlkit

import (
	"math"
	"testing"
)

// threeBlobs generates three separated Gaussian clusters, classes 0/1/2.
func threeBlobs(n int, seed int64) ([][]float64, []int) {
	rng := NewRNG(seed)
	centers := [][]float64{{0, 0}, {6, 0}, {0, 6}}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 3
		X[i] = []float64{
			centers[c][0] + rng.NormFloat64()*0.5,
			centers[c][1] + rng.NormFloat64()*0.5,
		}
		y[i] = c
	}
	return X, y
}

func multiAccuracy(yTrue, yPred []int) float64 {
	n := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			n++
		}
	}
	return float64(n) / float64(len(yTrue))
}

func TestDecisionTreeMulticlass(t *testing.T) {
	X, y := threeBlobs(300, 201)
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := multiAccuracy(y, tr.Predict(X)); acc < 0.98 {
		t.Errorf("multiclass tree accuracy = %.3f", acc)
	}
}

func TestRandomForestMulticlass(t *testing.T) {
	X, y := threeBlobs(300, 203)
	f := &RandomForest{NTrees: 15, Seed: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := multiAccuracy(y, f.Predict(X)); acc < 0.98 {
		t.Errorf("multiclass forest accuracy = %.3f", acc)
	}
}

func TestGaussianNBMulticlass(t *testing.T) {
	X, y := threeBlobs(300, 207)
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := multiAccuracy(y, g.Predict(X)); acc < 0.98 {
		t.Errorf("multiclass NB accuracy = %.3f", acc)
	}
}

func TestKNNMulticlass(t *testing.T) {
	X, y := threeBlobs(300, 209)
	k := &KNN{K: 3}
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if acc := multiAccuracy(y, k.Predict(X)); acc < 0.98 {
		t.Errorf("multiclass KNN accuracy = %.3f", acc)
	}
}

func TestMissingClassNeverPredicted(t *testing.T) {
	// Train with labels {0, 2} only: class 1 absent. NB must never
	// predict the unseen class.
	rng := NewRNG(211)
	X := make([][]float64, 100)
	y := make([]int, 100)
	for i := range X {
		c := (i % 2) * 2 // 0 or 2
		X[i] = []float64{float64(c)*3 + rng.NormFloat64()*0.2}
		y[i] = c
	}
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Predict(X) {
		if p == 1 {
			t.Fatal("predicted a class absent from training")
		}
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	X, y := blobs(200, 4, 2, 213)
	a := &RandomForest{NTrees: 10, Seed: 9}
	b := &RandomForest{NTrees: 10, Seed: 9}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Proba(X), b.Proba(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestVotingEnsembleSoftMode(t *testing.T) {
	X, y := blobs(200, 3, 3, 217)
	v := &VotingEnsemble{
		Soft: true,
		Members: []Classifier{
			&DecisionTree{Seed: 1},
			&GaussianNB{},
			&RandomForest{NTrees: 5, Seed: 1},
		},
	}
	if err := v.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := v.Proba(X)
	for _, s := range p {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("soft proba out of range: %v", s)
		}
	}
	if acc := Accuracy(y, v.Predict(X)); acc < 0.95 {
		t.Errorf("soft ensemble accuracy = %.3f", acc)
	}
}

func TestThresholdedProbaMonotoneInScore(t *testing.T) {
	th := &Thresholded{Detector: &GMM{K: 1, Seed: 1}, Quantile: 0.9}
	rng := NewRNG(219)
	X := make([][]float64, 150)
	y := make([]int, 150)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
	}
	if err := th.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Points farther from the mean must get monotonically higher proba.
	test := [][]float64{{0}, {1}, {2}, {4}, {8}}
	p := th.Proba(test)
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1] {
			t.Fatalf("proba not monotone in anomaly score: %v", p)
		}
		if p[i] < 0 || p[i] > 1 {
			t.Fatalf("proba out of range: %v", p)
		}
	}
}

func TestLinearSVMProbaRange(t *testing.T) {
	X, y := blobs(200, 3, 3, 223)
	s := &LinearSVM{Seed: 1}
	if err := s.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Proba(X) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("svm proba out of range: %v", p)
		}
	}
}

func TestFitRejectsBadShapes(t *testing.T) {
	models := []Classifier{
		&DecisionTree{}, &RandomForest{NTrees: 2}, &GaussianNB{}, &KNN{},
		&LinearSVM{},
	}
	for _, m := range models {
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%T: empty fit should error", m)
		}
		if err := m.Fit([][]float64{{1, 2}, {3}}, []int{0, 1}); err == nil {
			t.Errorf("%T: ragged rows should error", m)
		}
		if err := m.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
			t.Errorf("%T: label-count mismatch should error", m)
		}
	}
}
