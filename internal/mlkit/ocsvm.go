package mlkit

import "lumen/internal/mlkit/linalg"

// OneClassSVM implements Schölkopf's ν-one-class SVM trained by stochastic
// sub-gradient descent on the primal:
//
//	min_w,ρ  λ/2 ||w||² + (1/n) Σ max(0, ρ − ⟨w,x⟩) − νρ
//
// On raw inputs this is a linear one-class boundary; composed with
// NystromMap it approximates the RBF-kernel OCSVM of Yang et al. ("An
// Efficient One-Class SVM for Anomaly Detection in the Internet of Things"),
// which Lumen ports as algorithms A07–A09.
type OneClassSVM struct {
	// Nu in (0,1] bounds the training outlier fraction; 0 means 0.1.
	Nu float64
	// Lambda is the regularizer; 0 means 1e-4.
	Lambda float64
	// Epochs over the data; 0 means 20.
	Epochs int
	// Seed drives sampling order.
	Seed int64

	w   []float64
	rho float64
	obs FitObserver
}

// SetFitObserver attaches a per-epoch progress observer; the reported
// loss is the epoch's mean hinge term max(0, ρ − ⟨w,x⟩).
func (o *OneClassSVM) SetFitObserver(obs FitObserver) { o.obs = obs }

// Fit learns the normality boundary from (assumed mostly benign) X.
func (o *OneClassSVM) Fit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	nu := o.Nu
	if nu == 0 {
		nu = 0.1
	}
	lambda := o.Lambda
	if lambda == 0 {
		lambda = 1e-4
	}
	epochs := o.Epochs
	if epochs == 0 {
		epochs = 20
	}
	o.w = make([]float64, d)
	o.rho = 0
	rng := NewRNG(o.Seed)
	n := len(X)
	t := 0
	for e := 0; e < epochs; e++ {
		var hinge float64
		for k := 0; k < n; k++ {
			t++
			i := rng.Intn(n)
			eta := 1 / (lambda * float64(t))
			score := Dot(o.w, X[i])
			decay := 1 - eta*lambda
			for j := range o.w {
				o.w[j] *= decay
			}
			if score < o.rho { // hinge active: push w toward x, rho down
				hinge += o.rho - score
				for j, v := range X[i] {
					o.w[j] += eta * v
				}
				o.rho -= eta * (1 - nu)
			} else {
				o.rho += eta * nu
			}
		}
		if o.obs != nil {
			o.obs.FitEpoch("ocsvm", e, hinge/float64(n))
		}
	}
	return nil
}

// Score returns ρ − ⟨w,x⟩ per row: positive means outside the learned
// region (anomalous), higher is more anomalous. Rows split across the
// worker pool; each element is written by exactly one goroutine, so
// results are bit-identical for any worker count.
func (o *OneClassSVM) Score(X [][]float64, dst []float64) []float64 {
	out := outBuf(dst, len(X))
	linalg.ParallelRows(len(X), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = o.rho - linalg.Dot(o.w, X[i])
		}
	})
	return out
}
