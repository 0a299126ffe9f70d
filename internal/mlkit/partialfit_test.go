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
		"svm": func() PartialFitter { return &LinearSVM{Seed: 1} },
		"mlp": func() PartialFitter { return &MLPClassifier{Seed: 1} },
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

// TestReservoirOwnsRows: the reservoir keeps copies, so a caller that
// reuses its batch buffer (a streaming pass recycling its chunk matrix)
// changes neither the reservoir nor a model refit from a snapshot of it,
// as the daemon's drift-triggered retrain does.
func TestReservoirOwnsRows(t *testing.T) {
	X, y := sepData(600, 17)
	kept, reused := NewReservoir(128, 4), NewReservoir(128, 4)
	scratch := make([][]float64, 64)
	for i := range scratch {
		scratch[i] = make([]float64, len(X[0]))
	}
	for lo := 0; lo < len(X); lo += len(scratch) {
		hi := min(lo+len(scratch), len(X))
		kept.Add(X[lo:hi], y[lo:hi])
		batch := scratch[:hi-lo]
		for i := range batch {
			copy(batch[i], X[lo+i])
		}
		reused.Add(batch, y[lo:hi])
		for _, row := range batch {
			for j := range row {
				row[j] = math.NaN()
			}
		}
	}
	if kept.Len() != 128 {
		t.Fatalf("reservoir holds %d rows, want cap 128", kept.Len())
	}
	wantX, wantY := kept.Snapshot()
	gotX, gotY := reused.Snapshot()
	if !reflect.DeepEqual(wantX, gotX) || !reflect.DeepEqual(wantY, gotY) {
		t.Fatal("overwriting the caller's rows after Add changed the reservoir")
	}
	a, b := &KNN{K: 3, Seed: 1}, &KNN{K: 3, Seed: 1}
	if err := a.Fit(wantX, wantY); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(gotX, gotY); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Predict(X), b.Predict(X)) {
		t.Fatal("a model refit from a reused buffer diverges from one fit on untouched rows")
	}
}

// TestCanPartialFit: the SGD family partial-fits natively; a Thresholded
// does exactly when every step and the detector of its stack can, so a
// prequential pass only scores with the batch detectors.
func TestCanPartialFit(t *testing.T) {
	if !CanPartialFit(&LinearSVM{}) || !CanPartialFit(&MLPClassifier{}) {
		t.Fatal("SGD family must partial-fit natively")
	}
	for _, d := range []Detector{
		&GMM{K: 2},
		&DetectorPipeline{Steps: []Transformer{&StandardScaler{}}, Detector: &GMM{K: 2}},
		&DetectorPipeline{Steps: []Transformer{&StandardScaler{}}, Detector: &OneClassSVM{}},
		&DetectorPipeline{Steps: []Transformer{&StandardScaler{}}, Detector: &Autoencoder{}},
	} {
		if CanPartialFit(&Thresholded{Detector: d}) {
			t.Errorf("Thresholded over %T is batch-only", d)
		}
	}
	for _, d := range []Detector{
		&KitNET{},
		&DetectorPipeline{Steps: []Transformer{&MinMaxScaler{}}, Detector: &Autoencoder{}},
	} {
		if !CanPartialFit(&Thresholded{Detector: d}) {
			t.Errorf("Thresholded over %T must partial-fit", d)
		}
	}
	if CanPartialFit(&RandomForest{}) {
		t.Fatal("a forest is batch-only")
	}
}
