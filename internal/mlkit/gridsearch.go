package mlkit

import (
	"fmt"
	"sort"
)

// GridSearch implements the automatic hyperparameter tuning the paper
// lists as future work (§6, "techniques from grid-search ... could be
// used to automatically find the best hyper-parameters"): exhaustive
// search over a parameter grid with an internal stratified validation
// split, refitting the winner on all data.
type GridSearch struct {
	// New builds a candidate classifier from one parameter assignment.
	New func(params map[string]float64) Classifier
	// Grid maps parameter names to candidate values.
	Grid map[string][]float64
	// Metric scores a candidate (higher is better); nil means F1.
	Metric func(yTrue, yPred []int) float64
	// ValFrac is the internal validation fraction; 0 means 0.25.
	ValFrac float64
	// Seed drives the split.
	Seed int64

	best       Classifier
	bestParams map[string]float64
	bestScore  float64
}

// Fit evaluates the full cartesian grid and keeps the best assignment.
func (g *GridSearch) Fit(X [][]float64, y []int) error {
	if g.New == nil {
		return fmt.Errorf("mlkit: gridsearch: New is nil")
	}
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	metric := g.Metric
	if metric == nil {
		metric = F1Score
	}
	valFrac := g.ValFrac
	if valFrac == 0 {
		valFrac = 0.25
	}
	Xtr, ytr, Xval, yval := StratifiedSplit(X, y, valFrac, g.Seed)
	if len(Xtr) == 0 || len(Xval) == 0 {
		Xtr, ytr, Xval, yval = X, y, X, y
	}

	g.best = nil
	g.bestScore = -1
	assignments := expandGrid(g.Grid)
	for _, params := range assignments {
		m := g.New(params)
		if err := m.Fit(Xtr, ytr); err != nil {
			continue
		}
		score := metric(yval, m.Predict(Xval))
		if score > g.bestScore {
			g.bestScore = score
			g.bestParams = params
			g.best = m
		}
	}
	if g.best == nil {
		return fmt.Errorf("mlkit: gridsearch: no trainable candidate in grid of %d", len(assignments))
	}
	g.best = g.New(g.bestParams)
	return g.best.Fit(X, y)
}

// expandGrid enumerates the cartesian product of the grid, in a
// deterministic key order. An empty grid yields one empty assignment.
func expandGrid(grid map[string][]float64) []map[string]float64 {
	keys := make([]string, 0, len(grid))
	for k := range grid {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []map[string]float64{{}}
	for _, k := range keys {
		var next []map[string]float64
		for _, base := range out {
			for _, v := range grid[k] {
				a := make(map[string]float64, len(base)+1)
				for bk, bv := range base {
					a[bk] = bv
				}
				a[k] = v
				next = append(next, a)
			}
		}
		out = next
	}
	return out
}

// PredictProba delegates to the winning model (hard labels stand in for
// scores when it has none).
func (g *GridSearch) PredictProba(X [][]float64, pred []int, proba []float64) bool {
	return predictProbaHard(g.best, X, pred, proba)
}

// Predict delegates to the winning model.
func (g *GridSearch) Predict(X [][]float64) []int {
	pred, _ := PredictProba(g, X, nil, nil)
	return pred
}

// Proba delegates when supported.
func (g *GridSearch) Proba(X [][]float64) []float64 {
	_, proba := PredictProba(g, X, nil, nil)
	return proba
}
