package mlkit

import (
	"reflect"
	"sync"
	"testing"
)

// replicaData builds a small two-cluster dataset.
func replicaData() ([][]float64, []int) {
	var X [][]float64
	var y []int
	rng := NewRNG(7)
	for i := 0; i < 120; i++ {
		base := 0.2
		label := 0
		if i%3 == 0 {
			base = 0.8
			label = 1
		}
		X = append(X, []float64{base + rng.Float64()*0.1, base - rng.Float64()*0.1, rng.Float64() * 0.05})
		y = append(y, label)
	}
	return X, y
}

// TestScoringReplicaConcurrentBitIdentical fits every MLP-backed model
// shape, then scores the same matrix from several replicas concurrently
// (run under -race to prove scratch isolation) and asserts each replica
// reproduces the original's serial output exactly.
func TestScoringReplicaConcurrentBitIdentical(t *testing.T) {
	X, y := replicaData()
	models := map[string]Classifier{
		"mlp": &MLPClassifier{Hidden: []int{8}, Epochs: 5, Seed: 3},
		"autoencoder": &Thresholded{
			Detector: &DetectorPipeline{
				Steps:    []Transformer{&MinMaxScaler{}},
				Detector: &Autoencoder{Hidden: []int{4}, Epochs: 3, Seed: 3},
			},
			Quantile: 0.98,
		},
		"kitnet": &Thresholded{
			Detector: &KitNET{MaxAESize: 3, Epochs: 2, Seed: 3},
			Quantile: 0.98,
		},
		"ensemble": &VotingEnsemble{Members: []Classifier{
			&DecisionTree{Seed: 3},
			&MLPClassifier{Hidden: []int{4}, Epochs: 3, Seed: 3},
		}},
	}
	for name, clf := range models {
		t.Run(name, func(t *testing.T) {
			if err := clf.Fit(X, y); err != nil {
				t.Fatalf("fit: %v", err)
			}
			wantPred := clf.Predict(X)
			var wantProba []float64
			if pc, ok := clf.(ProbClassifier); ok {
				wantProba = pc.Proba(X)
			}
			const lanes = 4
			var wg sync.WaitGroup
			preds := make([][]int, lanes)
			probas := make([][]float64, lanes)
			for k := 0; k < lanes; k++ {
				rep := ScoringReplica(clf)
				if rep == clf {
					t.Fatalf("MLP-backed model %q was not replicated", name)
				}
				wg.Add(1)
				go func(k int, rep Classifier) {
					defer wg.Done()
					preds[k] = rep.Predict(X)
					if pc, ok := rep.(ProbClassifier); ok {
						probas[k] = pc.Proba(X)
					}
				}(k, rep)
			}
			wg.Wait()
			for k := 0; k < lanes; k++ {
				if !reflect.DeepEqual(preds[k], wantPred) {
					t.Errorf("replica %d Predict diverges from original", k)
				}
				if wantProba != nil && !reflect.DeepEqual(probas[k], wantProba) {
					t.Errorf("replica %d Proba diverges from original", k)
				}
			}
			// The original must still score identically after replicas ran.
			if !reflect.DeepEqual(clf.Predict(X), wantPred) {
				t.Error("original model's output changed after replica scoring")
			}
		})
	}
}

// TestScoringReplicaPureModelsShared: models without inference scratch
// are safe to share and come back unchanged.
func TestScoringReplicaPureModelsShared(t *testing.T) {
	X, y := replicaData()
	for name, clf := range map[string]Classifier{
		"decision_tree": &DecisionTree{Seed: 3},
		"knn":           &KNN{K: 3, Seed: 3},
		"gaussian_nb":   &GaussianNB{},
		"linear_svm":    &LinearSVM{Seed: 3},
	} {
		if err := clf.Fit(X, y); err != nil {
			t.Fatalf("%s fit: %v", name, err)
		}
		if rep := ScoringReplica(clf); rep != clf {
			t.Errorf("%s: scratch-free model was needlessly replicated", name)
		}
	}
}

// TestScoringReplicaForestSharedAcrossGoroutines: every shard lane gets
// the same forest back from ScoringReplica, so its flat node and leaf
// arrays are read by all lanes at once. Run under -race this proves the
// kernel only reads them; the outputs must equal the serial call's.
func TestScoringReplicaForestSharedAcrossGoroutines(t *testing.T) {
	X, y := replicaData()
	f := &RandomForest{NTrees: 20, Seed: 3}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	wantPred, wantProba := f.PredictProba(X)
	const lanes = 8
	preds := make([][]int, lanes)
	probas := make([][]float64, lanes)
	var wg sync.WaitGroup
	for k := 0; k < lanes; k++ {
		rep := ScoringReplica(f)
		if rep != Classifier(f) {
			t.Fatal("a forest has no inference scratch and should be shared, not copied")
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				preds[k], probas[k] = PredictProba(rep, X)
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < lanes; k++ {
		if !reflect.DeepEqual(preds[k], wantPred) || !reflect.DeepEqual(probas[k], wantProba) {
			t.Errorf("lane %d diverges from the serial call", k)
		}
	}
}
