package mlkit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	yTrue := []int{1, 1, 0, 0, 1, 0}
	yPred := []int{1, 0, 0, 1, 1, 0}
	c := NewConfusion(yTrue, yPred)
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Errorf("got %+v, want TP=2 FN=1 FP=1 TN=2", c)
	}
	if got := c.Precision(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("precision = %v, want 2/3", got)
	}
	if got := c.Recall(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("recall = %v, want 2/3", got)
	}
	if got := c.Accuracy(); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("accuracy = %v, want 4/6", got)
	}
}

func TestMetricsDegenerateCases(t *testing.T) {
	if p := Precision([]int{0, 0}, []int{0, 0}); p != 0 {
		t.Errorf("precision with no predictions = %v, want 0", p)
	}
	if r := Recall([]int{0, 0}, []int{1, 1}); r != 0 {
		t.Errorf("recall with no positives = %v, want 0", r)
	}
	if f := F1Score([]int{0}, []int{0}); f != 0 {
		t.Errorf("F1 degenerate = %v, want 0", f)
	}
}

func TestAUCPerfectAndInverted(t *testing.T) {
	y := []int{0, 0, 1, 1}
	if a := AUC(y, []float64{0.1, 0.2, 0.8, 0.9}); a != 1 {
		t.Errorf("perfect AUC = %v, want 1", a)
	}
	if a := AUC(y, []float64{0.9, 0.8, 0.2, 0.1}); a != 0 {
		t.Errorf("inverted AUC = %v, want 0", a)
	}
	if a := AUC(y, []float64{0.5, 0.5, 0.5, 0.5}); a != 0.5 {
		t.Errorf("all-tied AUC = %v, want 0.5", a)
	}
	if a := AUC([]int{1, 1}, []float64{0.1, 0.2}); a != 0.5 {
		t.Errorf("single-class AUC = %v, want 0.5", a)
	}
}

func TestAUCPropertyInRange(t *testing.T) {
	f := func(scores []float64, labels []bool) bool {
		n := len(scores)
		if len(labels) < n {
			n = len(labels)
		}
		if n == 0 {
			return true
		}
		y := make([]int, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
				return true // skip pathological float inputs
			}
			if labels[i] {
				y[i] = 1
			}
		}
		a := AUC(y, scores[:n])
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Input must not be reordered.
	xs2 := []float64{5, 1, 3}
	Quantile(xs2, 0.5)
	if xs2[0] != 5 || xs2[1] != 1 || xs2[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestPearsonCorr(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if r := PearsonCorr(a, b); math.Abs(r-1) > 1e-12 {
		t.Errorf("corr = %v, want 1", r)
	}
	c := []float64{8, 6, 4, 2}
	if r := PearsonCorr(a, c); math.Abs(r+1) > 1e-12 {
		t.Errorf("corr = %v, want -1", r)
	}
	flat := []float64{3, 3, 3, 3}
	if r := PearsonCorr(a, flat); r != 0 {
		t.Errorf("corr with constant = %v, want 0", r)
	}
}

func TestLogSumExpStability(t *testing.T) {
	got := logSumExp([]float64{-1000, -1000})
	want := -1000 + math.Log(2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("logSumExp = %v, want %v", got, want)
	}
	if !math.IsInf(logSumExp(nil), -1) {
		t.Error("logSumExp(nil) should be -Inf")
	}
}
