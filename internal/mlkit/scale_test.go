package mlkit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStandardScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	s := &StandardScaler{}
	if err := s.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := s.Transform(X)
	for j := 0; j < 2; j++ {
		var mean, va float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			d := out[i][j] - mean
			va += d * d
		}
		va /= 3
		if math.Abs(mean) > 1e-9 || math.Abs(va-1) > 1e-9 {
			t.Errorf("col %d: mean=%v var=%v, want 0/1", j, mean, va)
		}
	}
	// Input untouched.
	if X[0][0] != 1 {
		t.Error("Transform mutated its input")
	}
}

func TestStandardScalerConstantColumn(t *testing.T) {
	X := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := &StandardScaler{}
	if err := s.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := s.Transform(X)
	for i := range out {
		if out[i][0] != 0 {
			t.Errorf("constant column should map to 0, got %v", out[i][0])
		}
	}
}

func TestMinMaxScalerRangeAndClamp(t *testing.T) {
	X := [][]float64{{0}, {5}, {10}}
	s := &MinMaxScaler{}
	if err := s.Fit(X); err != nil {
		t.Fatal(err)
	}
	out := s.Transform([][]float64{{-5}, {5}, {20}})
	want := []float64{0, 0.5, 1}
	for i := range out {
		if math.Abs(out[i][0]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i][0], want[i])
		}
	}
}

func TestMinMaxScalerPropertyInUnit(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 2 {
			return true
		}
		X := make([][]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			X = append(X, []float64{v})
		}
		s := &MinMaxScaler{}
		if err := s.Fit(X); err != nil {
			return false
		}
		for _, row := range s.Transform(X) {
			if row[0] < 0 || row[0] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationFilterDropsDuplicates(t *testing.T) {
	rng := NewRNG(1)
	X := make([][]float64, 100)
	for i := range X {
		a := rng.NormFloat64()
		b := rng.NormFloat64()
		X[i] = []float64{a, 2 * a, b, a + 0.001*b} // cols 1 and 3 ~ col 0
	}
	f := &CorrelationFilter{Threshold: 0.95}
	if err := f.Fit(X); err != nil {
		t.Fatal(err)
	}
	if len(f.Keep) != 2 {
		t.Fatalf("kept %v, want exactly 2 columns (0 and 2)", f.Keep)
	}
	if f.Keep[0] != 0 || f.Keep[1] != 2 {
		t.Errorf("kept %v, want [0 2]", f.Keep)
	}
	out := f.Transform(X[:1])
	if len(out[0]) != 2 {
		t.Errorf("transform width = %d, want 2", len(out[0]))
	}
}

// TestTrainTestSplitSizesAndDisjoint checks the train/test split every
// validation split goes through (StratifiedSplit): the sides take the
// asked fraction and share no row.
func TestTrainTestSplitSizesAndDisjoint(t *testing.T) {
	X, y := blobs(100, 2, 1, 3)
	Xtr, ytr, Xte, yte := StratifiedSplit(X, y, 0.3, 7)
	if len(Xte) != 30 || len(Xtr) != 70 {
		t.Fatalf("sizes %d/%d, want 70/30", len(Xtr), len(Xte))
	}
	if len(ytr) != 70 || len(yte) != 30 {
		t.Fatalf("label sizes mismatch")
	}
	seen := map[*float64]bool{}
	for _, row := range append(append([][]float64{}, Xtr...), Xte...) {
		if seen[&row[0]] {
			t.Fatal("a row landed on both sides, or twice on one")
		}
		seen[&row[0]] = true
	}
}

func TestStratifiedSplitPreservesRatio(t *testing.T) {
	X := make([][]float64, 100)
	y := make([]int, 100)
	for i := range X {
		X[i] = []float64{float64(i)}
		if i < 20 {
			y[i] = 1
		}
	}
	_, ytr, _, yte := StratifiedSplit(X, y, 0.5, 1)
	pos := func(ys []int) int {
		n := 0
		for _, v := range ys {
			n += v
		}
		return n
	}
	if pos(ytr) != 10 || pos(yte) != 10 {
		t.Errorf("positives train=%d test=%d, want 10/10", pos(ytr), pos(yte))
	}
}

func TestSplitDeterminism(t *testing.T) {
	X, y := blobs(50, 2, 1, 5)
	// Labels come out grouped by class whatever the shuffle, so compare
	// which rows went where.
	X1, _, _, _ := StratifiedSplit(X, y, 0.4, 42)
	X2, _, _, _ := StratifiedSplit(X, y, 0.4, 42)
	for i := range X1 {
		if &X1[i][0] != &X2[i][0] {
			t.Fatal("same seed produced different splits")
		}
	}
}

func TestSubsample(t *testing.T) {
	X, y := blobs(100, 2, 1, 9)
	Xs, ys := Subsample(X, y, 10, 1)
	if len(Xs) != 10 || len(ys) != 10 {
		t.Fatalf("sizes %d/%d, want 10/10", len(Xs), len(ys))
	}
	Xs2, _ := Subsample(X, y, 1000, 1)
	if len(Xs2) != 100 {
		t.Errorf("oversized subsample should return input unchanged")
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := r.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	p := NewRNG(3).Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(4)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}
