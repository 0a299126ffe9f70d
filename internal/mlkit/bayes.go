package mlkit

import "math"

// GaussianNB is a Gaussian naive Bayes classifier (the "248 per-flow
// discriminators + naive Bayes" design of Moore & Zuev uses this family).
type GaussianNB struct {
	// VarSmoothing is added to every per-feature variance for stability;
	// 0 means 1e-9 times the largest feature variance.
	VarSmoothing float64

	classes  int
	priors   []float64   // log prior per class
	means    [][]float64 // [class][feature]
	vars     [][]float64 // [class][feature]
	presence []bool      // classes actually seen in training
}

// Fit estimates per-class feature means/variances and log priors.
func (g *GaussianNB) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	g.classes = classCount(y)
	counts := make([]float64, g.classes)
	g.means = make([][]float64, g.classes)
	g.vars = make([][]float64, g.classes)
	g.presence = make([]bool, g.classes)
	for c := 0; c < g.classes; c++ {
		g.means[c] = make([]float64, d)
		g.vars[c] = make([]float64, d)
	}
	for i, row := range X {
		c := y[i]
		counts[c]++
		g.presence[c] = true
		for j, v := range row {
			g.means[c][j] += v
		}
	}
	for c := 0; c < g.classes; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range g.means[c] {
			g.means[c][j] /= counts[c]
		}
	}
	var maxVar float64
	for i, row := range X {
		c := y[i]
		for j, v := range row {
			dv := v - g.means[c][j]
			g.vars[c][j] += dv * dv
		}
	}
	for c := 0; c < g.classes; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := range g.vars[c] {
			g.vars[c][j] /= counts[c]
			if g.vars[c][j] > maxVar {
				maxVar = g.vars[c][j]
			}
		}
	}
	smooth := g.VarSmoothing
	if smooth == 0 {
		smooth = 1e-9 * maxVar
		if smooth == 0 {
			smooth = 1e-9
		}
	}
	for c := 0; c < g.classes; c++ {
		for j := range g.vars[c] {
			g.vars[c][j] += smooth
		}
	}
	g.priors = make([]float64, g.classes)
	n := float64(len(X))
	for c := range g.priors {
		if counts[c] == 0 {
			g.priors[c] = math.Inf(-1)
		} else {
			g.priors[c] = math.Log(counts[c] / n)
		}
	}
	return nil
}

// logJoint returns the unnormalized class log-posteriors for one row.
func (g *GaussianNB) logJoint(row []float64) []float64 {
	lj := make([]float64, g.classes)
	for c := 0; c < g.classes; c++ {
		if !g.presence[c] {
			lj[c] = math.Inf(-1)
			continue
		}
		s := g.priors[c]
		for j, v := range row {
			va := g.vars[c][j]
			dv := v - g.means[c][j]
			s += -0.5*math.Log(2*math.Pi*va) - dv*dv/(2*va)
		}
		lj[c] = s
	}
	return lj
}

// Predict returns the maximum-posterior class per row.
func (g *GaussianNB) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	for i, row := range X {
		out[i] = ArgMax(g.logJoint(row))
	}
	return out
}

// Proba returns the posterior probability of class 1 per row.
func (g *GaussianNB) Proba(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		lj := g.logJoint(row)
		z := logSumExp(lj)
		if len(lj) > 1 && !math.IsInf(z, -1) {
			out[i] = math.Exp(lj[1] - z)
		}
	}
	return out
}
