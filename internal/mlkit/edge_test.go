package mlkit

import (
	"math"
	"testing"
)

func TestKitNETScoresNonNegative(t *testing.T) {
	rng := NewRNG(301)
	X := make([][]float64, 150)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64() * 2}
	}
	k := &KitNET{Epochs: 2, Seed: 1}
	if err := k.Fit(X); err != nil {
		t.Fatal(err)
	}
	for i, s := range k.Score(X) {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("score[%d] = %v", i, s)
		}
	}
}

func TestKitNETSingleFeature(t *testing.T) {
	rng := NewRNG(303)
	X := make([][]float64, 60)
	for i := range X {
		X[i] = []float64{rng.Float64()}
	}
	k := &KitNET{Epochs: 1, Seed: 1}
	if err := k.Fit(X); err != nil {
		t.Fatalf("single-feature fit: %v", err)
	}
	if len(k.clusters) != 1 {
		t.Errorf("clusters = %v, want one singleton", k.clusters)
	}
}

func TestNystromTransformDimension(t *testing.T) {
	rng := NewRNG(307)
	X := make([][]float64, 100)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	ny := &NystromMap{M: 16, Seed: 1}
	if err := ny.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := ny.Transform(X[:3])
	if len(out) != 3 || len(out[0]) != 16 {
		t.Fatalf("transform shape %dx%d, want 3x16", len(out), len(out[0]))
	}
	for _, row := range out {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite Nystrom feature")
			}
		}
	}
}

func TestNystromMoreLandmarksThanPoints(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	ny := &NystromMap{M: 64, Seed: 1}
	if err := ny.Fit(X); err != nil {
		t.Fatalf("M > n should clamp, got %v", err)
	}
}

func TestAutoMLCustomCandidates(t *testing.T) {
	X, y := blobs(200, 3, 3, 311)
	a := &AutoML{
		Candidates: []NamedClassifier{
			{"only-nb", func() Classifier { return &GaussianNB{} }},
		},
		Seed: 1,
	}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.best.(*GaussianNB); !ok {
		t.Errorf("best = %T, want the only-nb candidate's *GaussianNB", a.best)
	}
}

func TestMLPForwardShapes(t *testing.T) {
	m := &MLP{Sizes: []int{3, 5, 2}, Seed: 1}
	m.Init()
	copy(m.acts[0].Reshape(1, 3).Row(0), []float64{1, 2, 3})
	m.forwardBatch(1)
	if len(m.acts) != 3 || len(m.acts[1].Row(0)) != 5 || len(m.acts[2].Row(0)) != 2 {
		t.Fatalf("activation shapes wrong: %d layers", len(m.acts))
	}
	for _, v := range m.acts[2].Row(0) {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid output out of range: %v", v)
		}
	}
}

func TestMLPLearnsAND(t *testing.T) {
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	T := [][]float64{{0}, {0}, {0}, {1}}
	m := &MLP{Sizes: []int{2, 4, 1}, Act: ActTanh, Epochs: 400, LR: 0.2, Seed: 1}
	if err := m.FitTargets(X, T); err != nil {
		t.Fatal(err)
	}
	p := m.Predict01(X)
	if p[3] < 0.7 || p[0] > 0.3 {
		t.Errorf("AND not learned: %v", p)
	}
}

func TestDotAndSqDist(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("dot product wrong")
	}
	if SqDist([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Error("squared distance wrong")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Error("argmax wrong")
	}
	if ArgMax([]float64{7, 7}) != 0 {
		t.Error("argmax tie should pick first")
	}
	if ArgMax(nil) != -1 {
		t.Error("empty argmax should be -1")
	}
}

func TestGMMMoreComponentsThanPoints(t *testing.T) {
	X := [][]float64{{1}, {2}}
	g := &GMM{K: 10, Seed: 1}
	if err := g.Fit(X); err != nil {
		t.Fatalf("K > n should clamp: %v", err)
	}
	if s := g.Score(X); len(s) != 2 {
		t.Fatal("score length wrong")
	}
}
