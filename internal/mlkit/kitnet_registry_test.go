package mlkit_test

import (
	"math"
	"testing"

	"lumen/internal/algorithms"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/mlkit/linalg"
)

// recorder is a classifier that keeps the feature matrix it is asked to
// score: installed behind a pipeline's train op, it captures exactly what
// the model sees.
type recorder struct{ X [][]float64 }

func (r *recorder) Fit([][]float64, []int) error { return nil }
func (r *recorder) Predict(X [][]float64) []int {
	r.X = X
	return make([]int, len(X))
}

// TestKitNETMatchesReferenceOnRegistry: on every registry dataset, A06
// (kitsune_features into KitNET) trained by the engine scores its own
// feature matrix to the same bits through the flat kernel as through the
// old Score, at 1, 2 and 4 workers.
func TestKitNETMatchesReferenceOnRegistry(t *testing.T) {
	alg, ok := algorithms.Get("A06")
	if !ok {
		t.Fatal("no A06")
	}
	for _, spec := range dataset.Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			ds := spec.Generate(1)
			eng := core.NewEngine(alg.Pipeline)
			if err := eng.Train(ds); err != nil {
				t.Fatal(err)
			}
			clf, _ := eng.TrainedModel()
			kit := clf.(*mlkit.Thresholded).Detector.(*mlkit.KitNET)
			rec := &recorder{}
			if err := eng.ReplaceModel(rec); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Test(ds); err != nil {
				t.Fatal(err)
			}
			if len(rec.X) != len(ds.Packets) {
				t.Fatalf("captured %d rows of %d packets", len(rec.X), len(ds.Packets))
			}
			want := mlkit.RefKitNETScore(kit, rec.X)
			for _, w := range []int{1, 2, 4} {
				prev := linalg.SetWorkers(w)
				got := kit.Score(rec.X, nil)
				linalg.SetWorkers(prev)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%d workers, packet %d scores %v, reference %v", w, i, got[i], want[i])
					}
				}
			}
		})
	}
}
