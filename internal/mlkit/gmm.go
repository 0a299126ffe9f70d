package mlkit

import (
	"math"

	"lumen/internal/mlkit/linalg"
)

// GMM is a diagonal-covariance Gaussian mixture fitted by EM. As a
// Detector it scores rows by negative log-likelihood, the density-based
// anomaly criterion used by the "Nyström + GMM" algorithm (A08).
type GMM struct {
	// K mixture components; 0 means 4.
	K int
	// MaxIter EM iterations; 0 means 50.
	MaxIter int
	// Tol stops EM when the mean log-likelihood improves by less; 0 means 1e-4.
	Tol float64
	// Seed drives k-means initialization.
	Seed int64

	weights []float64
	means   [][]float64
	vars    [][]float64
	obs     FitObserver

	// Derived per-component constants, rebuilt by refresh() whenever the
	// parameters change: logW[c] = log weight, logNorm[c] = Σ_j
	// -½log(2πσ²), inv2v[c][j] = 1/(2σ²). They turn logGauss into one
	// fused multiply-accumulate loop with no log or division per element.
	logW    []float64
	logNorm []float64
	inv2v   [][]float64
}

// SetFitObserver attaches a progress observer; each EM iteration reports
// the negative mean log-likelihood as its loss.
func (g *GMM) SetFitObserver(o FitObserver) { g.obs = o }

func (g *GMM) kval() int {
	if g.K == 0 {
		return 4
	}
	return g.K
}

// refresh rebuilds the derived constants from weights/means/vars.
func (g *GMM) refresh() {
	k := len(g.weights)
	if cap(g.logW) < k {
		g.logW = make([]float64, k)
		g.logNorm = make([]float64, k)
		g.inv2v = make([][]float64, k)
	}
	g.logW = g.logW[:k]
	g.logNorm = g.logNorm[:k]
	g.inv2v = g.inv2v[:k]
	for c := 0; c < k; c++ {
		g.logW[c] = math.Log(g.weights[c])
		va := g.vars[c]
		if cap(g.inv2v[c]) < len(va) {
			g.inv2v[c] = make([]float64, len(va))
		}
		iv := g.inv2v[c][:len(va)]
		var ln float64
		for j, v := range va {
			ln += -0.5 * math.Log(2*math.Pi*v)
			iv[j] = 1 / (2 * v)
		}
		g.logNorm[c] = ln
		g.inv2v[c] = iv
	}
}

// Fit runs EM from a k-means initialization.
func (g *GMM) Fit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	k := g.kval()
	if k > len(X) {
		k = len(X)
	}
	km := &KMeans{K: k, Seed: g.Seed}
	if err := km.Fit(X); err != nil {
		return err
	}
	assign := km.Assign(X)
	g.weights = make([]float64, k)
	g.means = make([][]float64, k)
	g.vars = make([][]float64, k)
	for c := 0; c < k; c++ {
		g.means[c] = append([]float64(nil), km.Centers[c]...)
		g.vars[c] = make([]float64, d)
	}
	counts := make([]float64, k)
	for i, row := range X {
		c := assign[i]
		counts[c]++
		for j, v := range row {
			dv := v - g.means[c][j]
			g.vars[c][j] += dv * dv
		}
	}
	n := float64(len(X))
	for c := 0; c < k; c++ {
		g.weights[c] = math.Max(counts[c]/n, 1e-6)
		for j := range g.vars[c] {
			if counts[c] > 0 {
				g.vars[c][j] /= counts[c]
			}
			if g.vars[c][j] < 1e-6 {
				g.vars[c][j] = 1e-6
			}
		}
	}

	maxIter := g.MaxIter
	if maxIter == 0 {
		maxIter = 50
	}
	tol := g.Tol
	if tol == 0 {
		tol = 1e-4
	}
	resp := make([][]float64, len(X))
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	llRow := make([]float64, len(X))
	prevLL := math.Inf(-1)
	for iter := 0; iter < maxIter; iter++ {
		// E-step: rows are independent (disjoint writes into resp and
		// llRow), so they split across the worker pool; the
		// log-likelihood reduction runs serially over llRow in row order
		// afterwards — bit-identical for any worker count.
		g.refresh()
		linalg.ParallelRows(len(X), func(lo, hi int) {
			lp := make([]float64, k)
			for i := lo; i < hi; i++ {
				row := X[i]
				for c := 0; c < k; c++ {
					lp[c] = g.logW[c] + g.logGauss(row, c)
				}
				z := logSumExp(lp)
				llRow[i] = z
				ri := resp[i]
				for c := 0; c < k; c++ {
					ri[c] = math.Exp(lp[c] - z)
				}
			}
		})
		var ll float64
		for _, z := range llRow {
			ll += z
		}
		ll /= n
		if g.obs != nil {
			g.obs.FitEpoch("gmm", iter, -ll)
		}
		if ll-prevLL < tol && iter > 0 {
			break
		}
		prevLL = ll
		// M-step: components are independent, so they split across the
		// pool; each accumulates over rows in index order.
		linalg.ParallelRows(k, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				var rc float64
				mean := make([]float64, d)
				for i, row := range X {
					r := resp[i][c]
					rc += r
					for j, v := range row {
						mean[j] += r * v
					}
				}
				if rc < 1e-9 {
					continue
				}
				for j := range mean {
					mean[j] /= rc
				}
				va := make([]float64, d)
				for i, row := range X {
					r := resp[i][c]
					for j, v := range row {
						dv := v - mean[j]
						va[j] += r * dv * dv
					}
				}
				for j := range va {
					va[j] /= rc
					if va[j] < 1e-6 {
						va[j] = 1e-6
					}
				}
				g.weights[c] = rc / n
				g.means[c] = mean
				g.vars[c] = va
			}
		})
	}
	g.refresh()
	return nil
}

func (g *GMM) logGauss(row []float64, c int) float64 {
	m := g.means[c][:len(row)]
	iv := g.inv2v[c][:len(row)]
	var s float64
	for j, v := range row {
		dv := v - m[j]
		s += dv * dv * iv[j]
	}
	return g.logNorm[c] - s
}

// LogLikelihood returns the per-row mixture log density. Rows split
// across the worker pool; each output element is written by exactly one
// goroutine, so results are bit-identical for any worker count.
func (g *GMM) LogLikelihood(X [][]float64) []float64 {
	out := make([]float64, len(X))
	k := len(g.weights)
	linalg.ParallelRows(len(X), func(lo, hi int) {
		lp := make([]float64, k)
		for i := lo; i < hi; i++ {
			row := X[i]
			for c := 0; c < k; c++ {
				lp[c] = g.logW[c] + g.logGauss(row, c)
			}
			out[i] = logSumExp(lp)
		}
	})
	return out
}

// Score writes the negative log-likelihood (higher = more anomalous).
func (g *GMM) Score(X [][]float64, dst []float64) []float64 {
	dst = outBuf(dst, len(X))
	for i, v := range g.LogLikelihood(X) {
		dst[i] = -v
	}
	return dst
}
