// Package mlkit is a self-contained machine-learning library implemented on
// the Go standard library only. It provides the model families required by
// the 16 anomaly-detection algorithms Lumen ports: decision trees, random
// forests, naive Bayes, k-nearest neighbours, linear and one-class SVMs,
// Gaussian mixtures, k-means, Nyström kernel approximation, feed-forward
// autoencoders, Kitsune's KitNET ensemble, and a small AutoML search.
//
// Two interfaces split the supervised and unsupervised worlds:
//
//	Classifier: Fit(X, y) then Predict(X) -> class labels
//	Detector:   Fit(X)    then Score(X)   -> anomaly scores (higher = worse)
//
// All models accept row-major [][]float64 feature matrices. Randomized
// models take an explicit seed so results are reproducible.
package mlkit

import (
	"errors"
	"fmt"
)

// Classifier is a supervised classifier over dense feature vectors.
// Labels are small non-negative ints; binary tasks use 0 (benign) and
// 1 (malicious).
type Classifier interface {
	// Fit trains the classifier. X is row-major, len(y) == len(X).
	Fit(X [][]float64, y []int) error
	// Predict returns one label per row of X.
	Predict(X [][]float64) []int
}

// ProbClassifier is a Classifier that can also report class-1 scores,
// enabling threshold sweeps (AUC) on supervised models.
type ProbClassifier interface {
	Classifier
	// Proba returns, for each row, the score of the positive class in [0,1].
	Proba(X [][]float64) []float64
}

// FusedClassifier is a Classifier whose labels and class-1 scores come out
// of one pass over X. Models implement it when Predict and Proba would
// otherwise repeat the same expensive work (a forest walk, a network
// forward pass, a neighbour scan, a detector score); on those models
// Predict and Proba are projections of PredictProba. Callers go through
// the package-level PredictProba rather than asserting this interface.
type FusedClassifier interface {
	Classifier
	// PredictProba writes Predict(X) into pred and Proba(X) into proba,
	// each of length len(X), from a single pass, overwriting every
	// element. It reports whether the model has scores: when it has
	// none, proba holds nothing meaningful.
	PredictProba(X [][]float64, pred []int, proba []float64) bool
}

// PredictProba scores X once into pred and proba, which hold at least
// len(X) elements or are nil for fresh slices, when c is a
// FusedClassifier, and otherwise falls back to Predict followed by Proba
// copied into them. It returns both cut to len(X); proba is nil when the
// model exposes no scores (it is not a ProbClassifier, or it is a
// SwapHandle around one that is not).
func PredictProba(c Classifier, X [][]float64, pred []int, proba []float64) ([]int, []float64) {
	pred, proba = outBuf(pred, len(X)), outBuf(proba, len(X))
	if fc, ok := c.(FusedClassifier); ok {
		if !fc.PredictProba(X, pred, proba) {
			proba = nil
		}
		return pred, proba
	}
	copy(pred, c.Predict(X))
	pc, ok := c.(ProbClassifier)
	if !ok {
		return pred, nil
	}
	copy(proba, pc.Proba(X))
	return pred, proba
}

// outBuf is a scoring call's output: dst cut to n, or a new slice when
// dst is nil.
func outBuf[T any](dst []T, n int) []T {
	if dst == nil {
		return make([]T, n)
	}
	return dst[:n]
}

// predictProbaHard is PredictProba for the delegating wrappers
// (GridSearch, AutoML), which always report scores:
// when the wrapped model has none, its hard 0/1 labels stand in.
func predictProbaHard(c Classifier, X [][]float64, pred []int, proba []float64) bool {
	if _, s := PredictProba(c, X, pred, proba); s == nil {
		for i, v := range pred[:len(X)] {
			proba[i] = float64(v)
		}
	}
	return true
}

// Detector is an unsupervised anomaly detector. Fit learns a model of
// "normal" data; Score writes a value per row where higher means more
// anomalous.
type Detector interface {
	Fit(X [][]float64) error
	// Score writes one score per row of X into dst, which holds at least
	// len(X) elements or is nil for a fresh slice, and returns it cut to
	// len(X).
	Score(X [][]float64, dst []float64) []float64
}

// Thresholded wraps a Detector and a score threshold into a Classifier:
// scores strictly above the threshold predict class 1.
type Thresholded struct {
	Detector  Detector
	Threshold float64
	// Quantile, when in (0,1], recomputes Threshold at Fit time as that
	// quantile of the training scores (e.g. 0.98 tolerates 2% training
	// outliers). When 0 the fixed Threshold is used as-is.
	Quantile float64

	// q2 streams the training-score quantile for PartialFit, replacing
	// Fit's exact sort without retaining scores.
	q2 *P2Quantile
}

// Fit fits the wrapped detector on the benign subset of X (rows with y==0),
// falling back to all rows if none are labelled benign, then calibrates the
// threshold from training scores when Quantile is set.
func (t *Thresholded) Fit(X [][]float64, y []int) error {
	benign := make([][]float64, 0, len(X))
	for i, row := range X {
		if y[i] == 0 {
			benign = append(benign, row)
		}
	}
	if len(benign) == 0 {
		benign = X
	}
	if err := t.Detector.Fit(benign); err != nil {
		return err
	}
	if t.Quantile > 0 {
		scores := t.Detector.Score(benign, nil)
		t.Threshold = Quantile(scores, t.Quantile)
		t.q2 = nil // a fresh batch fit restarts any streaming calibration
	}
	return nil
}

// PredictProba scores X with the detector once, straight into proba.
// Rows whose anomaly score exceeds the threshold predict 1; proba maps
// the score monotonically into [0,1] via score/(score+threshold), which
// preserves AUC ordering.
func (t *Thresholded) PredictProba(X [][]float64, pred []int, proba []float64) bool {
	proba = t.Detector.Score(X, proba)
	for i, s := range proba {
		pred[i] = b2i(s > t.Threshold)
		if s < 0 {
			s = 0
		}
		if d := s + t.Threshold; d > 0 {
			proba[i] = s / d
		} else {
			proba[i] = 0
		}
	}
	return true
}

// Predict classifies rows whose anomaly score exceeds the threshold as 1.
func (t *Thresholded) Predict(X [][]float64) []int {
	pred, _ := PredictProba(t, X, nil, nil)
	return pred
}

// Proba returns the squashed anomaly score per row (see PredictProba).
func (t *Thresholded) Proba(X [][]float64) []float64 {
	_, proba := PredictProba(t, X, nil, nil)
	return proba
}

// ErrNoData is returned by Fit when the training matrix is empty.
var ErrNoData = errors.New("mlkit: empty training set")

// ErrDimMismatch is returned when feature dimensions are inconsistent.
var ErrDimMismatch = errors.New("mlkit: feature dimension mismatch")

// classCount returns the number of classes labels y span, at least two.
func classCount(y []int) int {
	classes := 2
	for _, label := range y {
		if label+1 > classes {
			classes = label + 1
		}
	}
	return classes
}

func checkXY(X [][]float64, y []int) (d int, err error) {
	if len(X) == 0 {
		return 0, ErrNoData
	}
	if y != nil && len(y) != len(X) {
		return 0, fmt.Errorf("%w: %d rows, %d labels", ErrDimMismatch, len(X), len(y))
	}
	d = len(X[0])
	for i, row := range X {
		if len(row) != d {
			return 0, fmt.Errorf("%w: row %d has %d features, want %d", ErrDimMismatch, i, len(row), d)
		}
	}
	return d, nil
}
