package mlkit

import (
	"math"
	"reflect"
	"testing"
)

// sepData builds a linearly separable two-blob problem.
func sepData(n int, seed int64) ([][]float64, []int) {
	rng := NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 2
		y[i] = c
		base := -1.0
		if c == 1 {
			base = 1
		}
		X[i] = []float64{base + rng.NormFloat64()*0.2, base + rng.NormFloat64()*0.2}
	}
	return X, y
}

// chunked feeds rows to a PartialFitter in fixed-size batches.
func chunked(t *testing.T, pf PartialFitter, X [][]float64, y []int, size int) {
	t.Helper()
	for lo := 0; lo < len(X); lo += size {
		hi := lo + size
		if hi > len(X) {
			hi = len(X)
		}
		if err := pf.PartialFit(X[lo:hi], y[lo:hi]); err != nil {
			t.Fatalf("PartialFit: %v", err)
		}
	}
}

// TestPartialFitChunkInvariant pins that for the in-order SGD family,
// feeding the same rows in different batch sizes yields identical
// predictions — the property the streaming engine's chunk-size sweep
// relies on.
func TestPartialFitChunkInvariant(t *testing.T) {
	X, y := sepData(400, 3)
	build := map[string]func() PartialFitter{
		"logistic": func() PartialFitter { return &LogisticRegression{Seed: 1} },
		"svm":      func() PartialFitter { return &LinearSVM{Seed: 1} },
		"mlp":      func() PartialFitter { return &MLPClassifier{Seed: 1} },
	}
	for name, mk := range build {
		whole := mk()
		if err := whole.PartialFit(X, y); err != nil {
			t.Fatalf("%s whole: %v", name, err)
		}
		for _, size := range []int{7, 64} {
			part := mk()
			chunked(t, part, X, y, size)
			if !reflect.DeepEqual(whole.Predict(X), part.Predict(X)) {
				t.Errorf("%s: chunk size %d diverges from whole-batch partial fit", name, size)
			}
		}
		acc := 0
		for i, p := range whole.Predict(X) {
			if p == y[i] {
				acc++
			}
		}
		if float64(acc)/float64(len(y)) < 0.9 {
			t.Errorf("%s: accuracy %d/%d on separable data", name, acc, len(y))
		}
	}
}

func TestStandardScalerPartialFitMatchesFit(t *testing.T) {
	X, _ := sepData(300, 9)
	batch := &StandardScaler{}
	if err := batch.Fit(X); err != nil {
		t.Fatal(err)
	}
	stream := &StandardScaler{}
	for lo := 0; lo < len(X); lo += 50 {
		if err := stream.PartialFit(X[lo : lo+50]); err != nil {
			t.Fatal(err)
		}
	}
	for j := range batch.Mean {
		if math.Abs(batch.Mean[j]-stream.Mean[j]) > 1e-9 || math.Abs(batch.Std[j]-stream.Std[j]) > 1e-9 {
			t.Fatalf("col %d: batch (%v,%v) vs welford (%v,%v)", j, batch.Mean[j], batch.Std[j], stream.Mean[j], stream.Std[j])
		}
	}
	// Fit-then-PartialFit continues the same statistics.
	cont := &StandardScaler{}
	if err := cont.Fit(X[:100]); err != nil {
		t.Fatal(err)
	}
	if err := cont.PartialFit(X[100:]); err != nil {
		t.Fatal(err)
	}
	for j := range batch.Mean {
		if math.Abs(batch.Mean[j]-cont.Mean[j]) > 1e-9 || math.Abs(batch.Std[j]-cont.Std[j]) > 1e-9 {
			t.Fatalf("col %d: fit+partial diverges from batch fit", j)
		}
	}
}

func TestMinMaxScalerPartialFit(t *testing.T) {
	X, _ := sepData(200, 11)
	batch := &MinMaxScaler{}
	if err := batch.Fit(X); err != nil {
		t.Fatal(err)
	}
	stream := &MinMaxScaler{}
	for lo := 0; lo < len(X); lo += 32 {
		hi := lo + 32
		if hi > len(X) {
			hi = len(X)
		}
		if err := stream.PartialFit(X[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(batch.Min, stream.Min) || !reflect.DeepEqual(batch.Max, stream.Max) {
		t.Fatal("streamed min/max diverges from batch fit")
	}
}

func TestThresholdedPartialFitOnlineDetector(t *testing.T) {
	clf := &Thresholded{
		Detector: &DetectorPipeline{
			Steps:    []Transformer{&MinMaxScaler{}},
			Detector: &Autoencoder{Seed: 5},
		},
		Quantile: 0.95,
	}
	if !CanPartialFit(clf) {
		t.Fatal("autoencoder pipeline should be online")
	}
	rng := NewRNG(2)
	mk := func(n int, shift float64) [][]float64 {
		X := make([][]float64, n)
		for i := range X {
			X[i] = []float64{shift + rng.Float64(), shift + rng.Float64(), shift + rng.Float64()}
		}
		return X
	}
	for i := 0; i < 8; i++ {
		if err := clf.PartialFit(mk(128, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	if clf.Threshold <= 0 {
		t.Fatalf("threshold not calibrated: %v", clf.Threshold)
	}
	anom := clf.Predict(mk(64, 10))
	hits := 0
	for _, p := range anom {
		hits += p
	}
	if hits < 48 {
		t.Errorf("online AE flagged %d/64 far-out rows", hits)
	}
}

func TestKitNETPartialFit(t *testing.T) {
	k := &KitNET{Seed: 3}
	rng := NewRNG(8)
	mk := func(n int) [][]float64 {
		X := make([][]float64, n)
		for i := range X {
			a := rng.Float64()
			X[i] = []float64{a, a * 2, rng.Float64(), rng.Float64() * 3}
		}
		return X
	}
	for i := 0; i < 4; i++ {
		if err := k.PartialFit(mk(200)); err != nil {
			t.Fatal(err)
		}
	}
	if len(k.Clusters()) == 0 {
		t.Fatal("first batch should learn the feature map")
	}
	scores := k.Score(mk(10))
	if len(scores) != 10 {
		t.Fatalf("got %d scores", len(scores))
	}
}

func TestReservoirRetrainer(t *testing.T) {
	X, y := sepData(600, 17)
	rr := &ReservoirRetrainer{Model: &GaussianNB{}, Cap: 256, RetrainEvery: -1, Seed: 4}
	if got := rr.Predict(X[:3]); !reflect.DeepEqual(got, []int{0, 0, 0}) {
		t.Fatal("unfitted wrapper must predict benign")
	}
	chunked(t, rr, X, y, 100)
	if rr.Fitted() {
		t.Fatal("auto-retrain disabled, should still be unfitted")
	}
	if rr.Rows() != 256 {
		t.Fatalf("reservoir holds %d rows, want cap 256", rr.Rows())
	}
	if err := rr.FinishFit(); err != nil {
		t.Fatal(err)
	}
	if !rr.Fitted() {
		t.Fatal("FinishFit should have retrained")
	}
	acc := 0
	for i, p := range rr.Predict(X) {
		if p == y[i] {
			acc++
		}
	}
	if float64(acc)/float64(len(y)) < 0.9 {
		t.Errorf("reservoir-trained NB accuracy %d/%d", acc, len(y))
	}
	// Auto-retrain path fires inside PartialFit.
	auto := &ReservoirRetrainer{Model: &GaussianNB{}, RetrainEvery: 128, Seed: 4}
	chunked(t, auto, X[:256], y[:256], 64)
	if !auto.Fitted() {
		t.Fatal("RetrainEvery=128 should have retrained within 256 rows")
	}
}

// TestReservoirRetrainerOwnsRows: the reservoir keeps copies, so a caller
// that reuses its batch buffer (a streaming pass recycling its chunk
// matrix) changes neither the reservoir nor the model refit from it.
func TestReservoirRetrainerOwnsRows(t *testing.T) {
	X, y := sepData(600, 17)
	build := func() *ReservoirRetrainer {
		return &ReservoirRetrainer{Model: &KNN{K: 3, Seed: 1}, Cap: 128, RetrainEvery: 96, Seed: 4}
	}
	kept, reused := build(), build()
	scratch := make([][]float64, 64)
	for i := range scratch {
		scratch[i] = make([]float64, len(X[0]))
	}
	for lo := 0; lo < len(X); lo += len(scratch) {
		hi := min(lo+len(scratch), len(X))
		if err := kept.PartialFit(X[lo:hi], y[lo:hi]); err != nil {
			t.Fatal(err)
		}
		batch := scratch[:hi-lo]
		for i := range batch {
			copy(batch[i], X[lo+i])
		}
		if err := reused.PartialFit(batch, y[lo:hi]); err != nil {
			t.Fatal(err)
		}
		for _, row := range batch {
			for j := range row {
				row[j] = math.NaN()
			}
		}
	}
	wantX, wantY := kept.Snapshot()
	gotX, gotY := reused.Snapshot()
	if !reflect.DeepEqual(wantX, gotX) || !reflect.DeepEqual(wantY, gotY) {
		t.Fatal("overwriting the caller's rows after PartialFit changed the reservoir")
	}
	if !reused.Fitted() || !reflect.DeepEqual(kept.Predict(X), reused.Predict(X)) {
		t.Fatal("a model refit from a reused buffer diverges from one fit on untouched rows")
	}
}

func TestAsPartialFitter(t *testing.T) {
	if !CanPartialFit(&LogisticRegression{}) || !CanPartialFit(&LinearSVM{}) || !CanPartialFit(&MLPClassifier{}) {
		t.Fatal("SGD family must partial-fit natively")
	}
	batchThr := &Thresholded{Detector: &GMM{K: 2}}
	if CanPartialFit(batchThr) {
		t.Fatal("GMM-backed Thresholded is batch-only")
	}
	pf := AsPartialFitter(batchThr, 1)
	if _, ok := pf.(*ReservoirRetrainer); !ok {
		t.Fatalf("batch model should be reservoir-wrapped, got %T", pf)
	}
	online := &Thresholded{Detector: &KitNET{}}
	if got := AsPartialFitter(online, 1); got != PartialFitter(online) {
		t.Fatal("online Thresholded should pass through unwrapped")
	}
}
