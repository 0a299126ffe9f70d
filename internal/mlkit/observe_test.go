package mlkit

import "testing"

// recordingObserver collects every FitEpoch call.
type recordingObserver struct {
	models []string
	epochs []int
	losses []float64
}

func (r *recordingObserver) FitEpoch(model string, epoch int, loss float64) {
	r.models = append(r.models, model)
	r.epochs = append(r.epochs, epoch)
	r.losses = append(r.losses, loss)
}

// byModel groups recorded losses per model name.
func (r *recordingObserver) byModel() map[string][]float64 {
	out := map[string][]float64{}
	for i, m := range r.models {
		out[m] = append(out[m], r.losses[i])
	}
	return out
}

func TestMLPObserverEpochsAndLoss(t *testing.T) {
	X, y := xorData(40, 1)
	rec := &recordingObserver{}
	m := &MLPClassifier{Hidden: []int{6}, Epochs: 30, Seed: 1}
	m.SetFitObserver(rec)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if len(rec.epochs) != 30 {
		t.Fatalf("got %d epoch callbacks, want 30", len(rec.epochs))
	}
	for i, e := range rec.epochs {
		if e != i {
			t.Fatalf("epoch %d reported as %d", i, e)
		}
		if rec.models[i] != "mlp" {
			t.Fatalf("model name %q, want mlp", rec.models[i])
		}
	}
	first, last := rec.losses[0], rec.losses[len(rec.losses)-1]
	if !(last < first) {
		t.Errorf("loss did not decrease: first %v, last %v", first, last)
	}
}

func TestAutoencoderObserverRenames(t *testing.T) {
	X := [][]float64{{0.1, 0.2, 0.3}, {0.2, 0.3, 0.4}, {0.9, 0.8, 0.7}, {0.8, 0.7, 0.6}}
	rec := &recordingObserver{}
	a := &Autoencoder{Hidden: []int{2}, Epochs: 5, Seed: 1}
	a.SetFitObserver(rec)
	if err := a.Fit(X); err != nil {
		t.Fatal(err)
	}
	if len(rec.models) != 5 {
		t.Fatalf("got %d callbacks, want 5", len(rec.models))
	}
	for _, m := range rec.models {
		if m != "autoencoder" {
			t.Fatalf("model name %q, want autoencoder", m)
		}
	}
}

func TestKitNETObserver(t *testing.T) {
	X := make([][]float64, 40)
	rng := NewRNG(3)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	rec := &recordingObserver{}
	k := &KitNET{MaxAESize: 2, Epochs: 4, Seed: 1}
	k.SetFitObserver(rec)
	if err := k.Fit(X); err != nil {
		t.Fatal(err)
	}
	if got := rec.byModel()["kitnet"]; len(got) != 4 {
		t.Fatalf("kitnet reported %d epochs, want 4", len(got))
	}
}

func TestGMMObserver(t *testing.T) {
	rng := NewRNG(5)
	X := make([][]float64, 60)
	for i := range X {
		base := 0.0
		if i%2 == 0 {
			base = 5
		}
		X[i] = []float64{base + rng.NormFloat64(), base + rng.NormFloat64()}
	}
	rec := &recordingObserver{}
	g := &GMM{K: 2, Seed: 1}
	g.SetFitObserver(rec)
	if err := g.Fit(X); err != nil {
		t.Fatal(err)
	}
	losses := rec.byModel()["gmm"]
	if len(losses) == 0 {
		t.Fatal("gmm reported no EM iterations")
	}
	if !(losses[len(losses)-1] <= losses[0]) {
		t.Errorf("negative log-likelihood increased: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestSGDObservers(t *testing.T) {
	X, y := xorData(40, 2) // not linearly separable, but losses must still be reported
	for _, tc := range []struct {
		name string
		clf  Classifier
		want int
	}{
		{"linear_svm", &LinearSVM{Epochs: 6, Seed: 1}, 6},
	} {
		rec := &recordingObserver{}
		tc.clf.(ObservableFitter).SetFitObserver(rec)
		if err := tc.clf.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rec.byModel()[tc.name]; len(got) != tc.want {
			t.Errorf("%s reported %d epochs, want %d", tc.name, len(got), tc.want)
		}
	}

	rec := &recordingObserver{}
	oc := &OneClassSVM{Epochs: 5, Seed: 1}
	oc.SetFitObserver(rec)
	if err := oc.Fit(X); err != nil {
		t.Fatal(err)
	}
	if got := rec.byModel()["ocsvm"]; len(got) != 5 {
		t.Errorf("ocsvm reported %d epochs, want 5", len(got))
	}
}

func TestWrappersForwardObserver(t *testing.T) {
	X := [][]float64{{0.1, 0.1}, {0.2, 0.1}, {0.15, 0.2}, {0.9, 0.9}, {0.1, 0.15}, {0.2, 0.2}}
	y := []int{0, 0, 0, 1, 0, 0}

	// Thresholded → DetectorPipeline → OneClassSVM.
	rec := &recordingObserver{}
	var clf Classifier = &Thresholded{
		Detector: &DetectorPipeline{
			Steps:    []Transformer{&StandardScaler{}},
			Detector: &OneClassSVM{Epochs: 3, Seed: 1},
		},
		Quantile: 0.9,
	}
	clf.(ObservableFitter).SetFitObserver(rec)
	if err := clf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := rec.byModel()["ocsvm"]; len(got) != 3 {
		t.Fatalf("observer not forwarded through Thresholded/DetectorPipeline: %v", rec.byModel())
	}

	// VotingEnsemble forwards to observable members and skips the rest.
	rec = &recordingObserver{}
	ens := &VotingEnsemble{Members: []Classifier{
		&LinearSVM{Epochs: 2, Seed: 1},
		&DecisionTree{Seed: 1}, // not iterative: must be skipped, not crash
	}}
	ens.SetFitObserver(rec)
	if err := ens.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := rec.byModel()["linear_svm"]; len(got) != 2 {
		t.Fatalf("observer not forwarded through VotingEnsemble: %v", rec.byModel())
	}
}

// TestNoObserverNoOverheadPath just exercises the nil-observer branch —
// the guard that keeps the training hot loops free of callback work.
func TestNoObserverNoOverheadPath(t *testing.T) {
	X, y := xorData(20, 3)
	if err := (&LinearSVM{Epochs: 2, Seed: 1}).Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := (&MLPClassifier{Hidden: []int{4}, Epochs: 2, Seed: 1}).Fit(X, y); err != nil {
		t.Fatal(err)
	}
}
