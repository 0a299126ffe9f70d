package mlkit

import "fmt"

// AutoML performs a small model search — the stand-in for the AutoML stage
// nPrint (A01–A04) uses. It trains each candidate on a split of the
// training data, scores F1 on the held-out part, then refits the winner on
// everything.
type AutoML struct {
	// Candidates to try; empty means a default family of RF, DT, NB, KNN
	// and linear SVM with a couple of hyperparameter settings each.
	Candidates []NamedClassifier
	// ValFrac is the internal validation fraction; 0 means 0.25.
	ValFrac float64
	// Seed drives the split.
	Seed int64

	best   Classifier
	bestF1 float64
}

// NamedClassifier pairs a constructor with a label that names the
// candidate in a search space.
type NamedClassifier struct {
	Name string
	New  func() Classifier
}

// DefaultCandidates returns the stock search space.
func DefaultCandidates(seed int64) []NamedClassifier {
	return []NamedClassifier{
		{"rf50", func() Classifier { return &RandomForest{NTrees: 50, Seed: seed} }},
		{"rf20d8", func() Classifier { return &RandomForest{NTrees: 20, MaxDepth: 8, Seed: seed} }},
		{"dt", func() Classifier { return &DecisionTree{Seed: seed} }},
		{"dt8", func() Classifier { return &DecisionTree{MaxDepth: 8, Seed: seed} }},
		{"gnb", func() Classifier { return &GaussianNB{} }},
		{"knn5", func() Classifier { return &KNN{K: 5, Seed: seed} }},
		{"svm", func() Classifier { return &LinearSVM{Seed: seed} }},
	}
}

// Fit searches the candidate space and keeps the best model refit on all
// of X.
func (a *AutoML) Fit(X [][]float64, y []int) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	cands := a.Candidates
	if len(cands) == 0 {
		cands = DefaultCandidates(a.Seed)
	}
	valFrac := a.ValFrac
	if valFrac == 0 {
		valFrac = 0.25
	}
	Xtr, ytr, Xval, yval := StratifiedSplit(X, y, valFrac, a.Seed)
	if len(Xval) == 0 || len(Xtr) == 0 {
		Xtr, ytr, Xval, yval = X, y, X, y
	}
	a.best = nil
	a.bestF1 = -1
	for _, cand := range cands {
		m := cand.New()
		if err := m.Fit(Xtr, ytr); err != nil {
			continue
		}
		f1 := F1Score(yval, m.Predict(Xval))
		if f1 > a.bestF1 {
			a.bestF1 = f1
			a.best = m
		}
	}
	if a.best == nil {
		return fmt.Errorf("mlkit: automl found no trainable candidate")
	}
	return a.best.Fit(X, y) // refit winner on the full training set
}

// PredictProba delegates to the winning model (hard labels stand in for
// scores when it has none).
func (a *AutoML) PredictProba(X [][]float64, pred []int, proba []float64) bool {
	return predictProbaHard(a.best, X, pred, proba)
}

// Predict delegates to the winning model.
func (a *AutoML) Predict(X [][]float64) []int {
	pred, _ := PredictProba(a, X, nil, nil)
	return pred
}

// Proba delegates when the winner supports it, else returns hard labels.
func (a *AutoML) Proba(X [][]float64) []float64 {
	_, proba := PredictProba(a, X, nil, nil)
	return proba
}
