package mlkit

import (
	"math"

	"lumen/internal/mlkit/linalg"
)

// Activation selects the hidden-layer nonlinearity of an MLP.
type Activation int

// Supported activations.
const (
	ActSigmoid Activation = iota
	ActReLU
	ActTanh
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActTanh:
		return math.Tanh(x)
	default:
		return 1 / (1 + math.Exp(-x))
	}
}

func (a Activation) deriv(y float64) float64 {
	// Derivative expressed through the activation output y.
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActTanh:
		return 1 - y*y
	default:
		return y * (1 - y)
	}
}

// applyVec applies the activation in place over a flat slice, hoisting
// the switch out of the element loop.
func (a Activation) applyVec(xs []float64) {
	switch a {
	case ActReLU:
		for i, x := range xs {
			if x < 0 {
				xs[i] = 0
			}
		}
	case ActTanh:
		for i, x := range xs {
			xs[i] = math.Tanh(x)
		}
	default:
		for i, x := range xs {
			xs[i] = 1 / (1 + math.Exp(-x))
		}
	}
}

// scaleByDeriv multiplies dst element-wise by the activation derivative
// expressed through the activation outputs ys.
func (a Activation) scaleByDeriv(ys, dst []float64) {
	switch a {
	case ActReLU:
		for i, y := range ys {
			if y <= 0 {
				dst[i] = 0
			}
		}
	case ActTanh:
		for i, y := range ys {
			dst[i] *= 1 - y*y
		}
	default:
		for i, y := range ys {
			dst[i] *= y * (1 - y)
		}
	}
}

// sigmoidVec applies the output sigmoid in place.
func sigmoidVec(xs []float64) {
	for i, x := range xs {
		xs[i] = 1 / (1 + math.Exp(-x))
	}
}

// MLP is a fully-connected feed-forward network trained by minibatch SGD
// with momentum on mean-squared error. Weights live in flat row-major
// linalg.Dense matrices (one allocation per layer) and the forward and
// backward passes over a minibatch are per-layer GEMM kernels rather
// than per-sample vector loops, so training cost is dominated by
// cache-blocked matrix products instead of pointer chasing. It is the
// building block for the autoencoders used by Kitsune (A06), the Nokia
// network-centric detector (A11) and the early-detection model (A12),
// and serves as the "DNN" member of the Ensemble algorithm (A15-style
// stacks).
type MLP struct {
	// Sizes lists layer widths, inputs first, outputs last.
	Sizes []int
	// Act is the hidden activation; output is sigmoid for training targets
	// in [0,1].
	Act Activation
	// LR is the learning rate; 0 means 0.05.
	LR float64
	// Momentum coefficient; 0 means 0.9 (set negative for none).
	Momentum float64
	// Epochs over the data; 0 means 30.
	Epochs int
	// Batch is the minibatch size for FitTargets; 0 means 1 — classic
	// per-sample SGD, the seed-faithful default (the detectors that
	// threshold on training-score distributions need its n-updates-per-
	// epoch convergence). Set >1 to opt into minibatch GEMM training:
	// gradients are averaged over the batch, so the step size is
	// independent of batch size.
	Batch int
	// Seed drives weight init and sample order.
	Seed int64

	weights []*linalg.Dense // [layer], out×in, flat row-major
	biases  [][]float64     // [layer][out]
	velW    []*linalg.Dense
	velB    [][]float64

	// Reused minibatch scratch: layer activations, deltas, gradients.
	acts   []*linalg.Dense // [layer+1], n×Sizes[l]
	deltas []*linalg.Dense // [layer], n×Sizes[l+1]
	gradW  []*linalg.Dense
	gradB  [][]float64
	tgt    *linalg.Dense
	rowSq  []float64

	obs FitObserver
}

// SetFitObserver attaches a per-epoch progress observer (see FitObserver).
func (m *MLP) SetFitObserver(o FitObserver) { m.obs = o }

func (m *MLP) lr() float64 {
	if m.LR == 0 {
		return 0.05
	}
	return m.LR
}

func (m *MLP) momentum() float64 {
	if m.Momentum == 0 {
		return 0.9
	}
	if m.Momentum < 0 {
		return 0
	}
	return m.Momentum
}

func (m *MLP) epochs() int {
	if m.Epochs == 0 {
		return 30
	}
	return m.Epochs
}

func (m *MLP) batch() int {
	if m.Batch == 0 {
		return 1
	}
	return m.Batch
}

// Init allocates and randomizes weights (Xavier-style). Fit calls it
// automatically when needed. The draw order matches the historical
// nested-slice layout, so a given seed still produces the same initial
// network.
func (m *MLP) Init() {
	rng := NewRNG(m.Seed)
	nl := len(m.Sizes) - 1
	m.weights = make([]*linalg.Dense, nl)
	m.biases = make([][]float64, nl)
	m.velW = make([]*linalg.Dense, nl)
	m.velB = make([][]float64, nl)
	m.acts = make([]*linalg.Dense, nl+1)
	m.deltas = make([]*linalg.Dense, nl)
	m.gradW = make([]*linalg.Dense, nl)
	m.gradB = make([][]float64, nl)
	m.acts[0] = &linalg.Dense{}
	for l := 0; l < nl; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in+out))
		m.weights[l] = linalg.NewDense(out, in)
		for i := range m.weights[l].Data {
			m.weights[l].Data[i] = rng.NormFloat64() * scale
		}
		m.velW[l] = linalg.NewDense(out, in)
		m.biases[l] = make([]float64, out)
		m.velB[l] = make([]float64, out)
		m.acts[l+1] = &linalg.Dense{}
		m.deltas[l] = &linalg.Dense{}
		m.gradW[l] = linalg.NewDense(out, in)
		m.gradB[l] = make([]float64, out)
	}
	m.tgt = &linalg.Dense{}
}

// paramCount is the number of weights and biases of an initialized
// network.
func (m *MLP) paramCount() int {
	n := 0
	for l, w := range m.weights {
		n += len(w.Data) + len(m.biases[l])
	}
	return n
}

// forwardBatch runs the n rows already loaded into m.acts[0] through the
// network: one GEMM + bias + activation per layer, row-parallel.
func (m *MLP) forwardBatch(n int) {
	nl := len(m.weights)
	for l := 0; l < nl; l++ {
		z := m.acts[l+1].Reshape(n, m.Sizes[l+1])
		linalg.MatMulT(m.acts[l], m.weights[l], z)
		linalg.AddBiasRows(z, m.biases[l])
		last := l == nl-1
		linalg.ParallelRows(n, func(lo, hi int) {
			seg := z.Data[lo*z.Cols : hi*z.Cols]
			if last {
				sigmoidVec(seg) // sigmoid output
			} else {
				m.Act.applyVec(seg)
			}
		})
	}
}

// loadBatch copies the selected rows of X into m.acts[0] (and T into
// m.tgt when given), reusing the scratch backing arrays.
func (m *MLP) loadBatch(X, T [][]float64, idx []int) {
	n := len(idx)
	a0 := m.acts[0].Reshape(n, m.Sizes[0])
	for i, r := range idx {
		copy(a0.Row(i), X[r])
	}
	if T != nil {
		tg := m.tgt.Reshape(n, m.Sizes[len(m.Sizes)-1])
		for i, r := range idx {
			copy(tg.Row(i), T[r])
		}
	}
}

// trainOne is the n==1 fast path of trainBatch, operating on the row
// already loaded into m.acts[0] and m.tgt. Per-sample SGD is the hot
// loop of every online detector (KitNET trains packet by packet), so it
// bypasses the batch kernels: the forward pass is one Dot per output
// unit, the backward pass one Axpy per delta, and the momentum update is
// fused with the gradient outer product into a single pass over the
// weights — no gradient matrix is materialized. The gradient grouping
// (g = delta·activation, then -lr·g) matches trainBatch exactly.
func (m *MLP) trainOne(rowSq []float64) float64 {
	nl := len(m.weights)
	for l := 0; l < nl; l++ {
		z := m.acts[l+1].Reshape(1, m.Sizes[l+1]).Row(0)
		w := m.weights[l]
		ar := m.acts[l].Row(0)
		bl := m.biases[l]
		for o := range z {
			z[o] = bl[o] + linalg.Dot(w.Row(o), ar)
		}
		if l == nl-1 {
			sigmoidVec(z)
		} else {
			m.Act.applyVec(z)
		}
	}

	// Output delta (sigmoid + MSE).
	y := m.acts[nl].Row(0)
	tr := m.tgt.Row(0)
	d := m.deltas[nl-1].Reshape(1, m.Sizes[nl]).Row(0)
	var sqErr float64
	for o, yo := range y {
		e := yo - tr[o]
		sqErr += e * e
		d[o] = e * yo * (1 - yo)
	}
	if rowSq != nil {
		rowSq[0] = sqErr
	}

	// Hidden deltas: delta_l = (delta_{l+1} · W_{l+1}) ⊙ act'(a_{l+1}).
	for l := nl - 2; l >= 0; l-- {
		dl := m.deltas[l].Reshape(1, m.Sizes[l+1]).Row(0)
		for i := range dl {
			dl[i] = 0
		}
		w := m.weights[l+1]
		for o, dv := range m.deltas[l+1].Row(0) {
			if dv != 0 {
				linalg.Axpy(dv, w.Row(o), dl)
			}
		}
		m.Act.scaleByDeriv(m.acts[l+1].Row(0), dl)
	}

	// Fused gradient + momentum update, one pass over the weights.
	lr, mom := m.lr(), m.momentum()
	for l := 0; l < nl; l++ {
		al := m.acts[l].Row(0)
		w, vw := m.weights[l], m.velW[l]
		b, vb := m.biases[l], m.velB[l]
		for o, dv := range m.deltas[l].Row(0) {
			wr, vr := w.Row(o), vw.Row(o)
			for i, av := range al {
				g := dv * av
				vr[i] = mom*vr[i] - lr*g
				wr[i] += vr[i]
			}
			vb[o] = mom*vb[o] - lr*dv
			b[o] += vb[o]
		}
	}
	return sqErr
}

// trainBatch backpropagates the loaded minibatch of n rows against
// m.tgt and applies one momentum update with the gradients averaged
// over the batch. It returns the batch's summed pre-update squared error and,
// when rowSq is non-nil, fills per-row squared errors into it.
//
// Determinism: per-row work (output deltas, hidden deltas) fans out over
// ParallelRows with disjoint row writes; every reduction (error sums,
// bias gradients, weight gradients) runs serially in fixed row order, so
// results are bit-identical for any worker count.
func (m *MLP) trainBatch(n int, rowSq []float64) float64 {
	if n == 1 {
		return m.trainOne(rowSq)
	}
	m.forwardBatch(n)
	nl := len(m.weights)
	out := m.Sizes[nl]

	// Output layer (sigmoid + MSE).
	y := m.acts[nl]
	d := m.deltas[nl-1].Reshape(n, out)
	if cap(m.rowSq) < n {
		m.rowSq = make([]float64, n)
	}
	rs := m.rowSq[:n]
	linalg.ParallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yr, tr, dr := y.Row(i), m.tgt.Row(i), d.Row(i)
			var sq float64
			for o, yo := range yr {
				e := yo - tr[o]
				sq += e * e
				dr[o] = e * yo * (1 - yo)
			}
			rs[i] = sq
		}
	})
	var sqErr float64
	for i := 0; i < n; i++ {
		sqErr += rs[i]
	}
	if rowSq != nil {
		copy(rowSq, rs)
	}

	// Hidden layers: delta_l = (delta_{l+1} · W_{l+1}) ⊙ act'(a_{l+1}).
	for l := nl - 2; l >= 0; l-- {
		dl := m.deltas[l].Reshape(n, m.Sizes[l+1])
		linalg.MatMul(m.deltas[l+1], m.weights[l+1], dl)
		al := m.acts[l+1]
		linalg.ParallelRows(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				m.Act.scaleByDeriv(al.Row(i), dl.Row(i))
			}
		})
	}

	// Gradients averaged over the batch, then one momentum update. The
	// 1/n scaling keeps the step size independent of batch size (and
	// makes n=1 coincide with classic per-sample SGD).
	lr, mom := m.lr()/float64(n), m.momentum()
	for l := 0; l < nl; l++ {
		gw := m.gradW[l]
		gw.Zero()
		linalg.AtMulAdd(m.deltas[l], m.acts[l], gw)
		gb := m.gradB[l]
		for o := range gb {
			gb[o] = 0
		}
		dl := m.deltas[l]
		for i := 0; i < n; i++ {
			dr := dl.Row(i)
			for o, dv := range dr {
				gb[o] += dv
			}
		}
		w, vw := m.weights[l], m.velW[l]
		for i, g := range gw.Data {
			vw.Data[i] = mom*vw.Data[i] - lr*g
			w.Data[i] += vw.Data[i]
		}
		b, vb := m.biases[l], m.velB[l]
		for o, g := range gb {
			vb[o] = mom*vb[o] - lr*g
			b[o] += vb[o]
		}
	}
	return sqErr
}

// Forward runs one input through the network, returning all layer
// activations (activations[0] is the input itself).
func (m *MLP) Forward(x []float64) [][]float64 {
	if m.weights == nil {
		m.Init()
	}
	a0 := m.acts[0].Reshape(1, m.Sizes[0])
	copy(a0.Row(0), x)
	m.forwardBatch(1)
	acts := make([][]float64, len(m.Sizes))
	acts[0] = x
	for l := 1; l < len(m.Sizes); l++ {
		acts[l] = append([]float64(nil), m.acts[l].Row(0)...)
	}
	return acts
}

// TrainStep backpropagates one (x, target) pair and returns its squared
// error before the update. It is the batch-of-one case of trainBatch —
// the online form Kitsune uses, packet by packet.
func (m *MLP) TrainStep(x, target []float64) float64 {
	if m.weights == nil {
		m.Init()
	}
	a0 := m.acts[0].Reshape(1, m.Sizes[0])
	copy(a0.Row(0), x)
	tg := m.tgt.Reshape(1, m.Sizes[len(m.Sizes)-1])
	copy(tg.Row(0), target)
	return m.trainBatch(1, nil)
}

// TrainBatchRows backpropagates the rows X[idx] against T[idx] as one
// minibatch (one forward/backward GEMM pass, one weight update) and
// fills rowSq — when non-nil, len(idx) long — with per-row pre-update
// squared errors. It returns the batch's summed squared error.
func (m *MLP) TrainBatchRows(X, T [][]float64, idx []int, rowSq []float64) float64 {
	if m.weights == nil {
		m.Init()
	}
	m.loadBatch(X, T, idx)
	return m.trainBatch(len(idx), rowSq)
}

// FitTargets trains on explicit (X, T) pairs for Epochs passes of
// shuffled minibatches.
func (m *MLP) FitTargets(X, T [][]float64) error {
	if len(X) == 0 {
		return ErrNoData
	}
	if m.weights == nil {
		m.Init()
	}
	rng := NewRNG(m.Seed + 1)
	batch := m.batch()
	n := len(X)
	for e := 0; e < m.epochs(); e++ {
		perm := rng.Perm(n)
		var sqErr float64
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			m.loadBatch(X, T, perm[start:end])
			sqErr += m.trainBatch(end-start, nil)
		}
		if m.obs != nil {
			m.obs.FitEpoch("mlp", e, sqErr/float64(n))
		}
	}
	return nil
}

// VisitOutputs streams X through the network in minibatches and calls
// visit with each row index and its final-layer outputs. The output
// slice is scratch, only valid inside the call. Batch predict/score
// paths build on this so inference is GEMM-shaped too.
func (m *MLP) VisitOutputs(X [][]float64, visit func(i int, out []float64)) {
	if m.weights == nil || len(X) == 0 {
		return
	}
	const block = 256
	for start := 0; start < len(X); start += block {
		end := start + block
		if end > len(X) {
			end = len(X)
		}
		n := end - start
		a0 := m.acts[0].Reshape(n, m.Sizes[0])
		for i := 0; i < n; i++ {
			copy(a0.Row(i), X[start+i])
		}
		m.forwardBatch(n)
		last := m.acts[len(m.Sizes)-1]
		for i := 0; i < n; i++ {
			visit(start+i, last.Row(i))
		}
	}
}

// Predict01 runs rows forward and returns the first output unit.
func (m *MLP) Predict01(X [][]float64) []float64 {
	out := make([]float64, len(X))
	m.VisitOutputs(X, func(i int, o []float64) { out[i] = o[0] })
	return out
}

// MLPClassifier adapts MLP to the Classifier interface for binary tasks.
// Inputs should be scaled to roughly [0,1].
type MLPClassifier struct {
	// Hidden lists hidden-layer widths; empty means one layer of 16.
	Hidden []int
	// Epochs, LR, Seed configure the underlying MLP.
	Epochs int
	LR     float64
	Seed   int64
	// Threshold on the output unit; 0 means 0.5.
	Threshold float64

	net *MLP
	obs FitObserver
}

// SetFitObserver attaches a per-epoch progress observer (see FitObserver).
func (c *MLPClassifier) SetFitObserver(o FitObserver) { c.obs = o }

// Fit trains the network on binary labels.
func (c *MLPClassifier) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	hidden := c.Hidden
	if len(hidden) == 0 {
		hidden = []int{16}
	}
	sizes := append([]int{d}, hidden...)
	sizes = append(sizes, 1)
	c.net = &MLP{Sizes: sizes, Act: ActReLU, Epochs: c.Epochs, LR: c.LR, Seed: c.Seed}
	if c.obs != nil {
		c.net.obs = c.obs
	}
	T := make([][]float64, len(y))
	for i, label := range y {
		if label != 0 {
			T[i] = []float64{1}
		} else {
			T[i] = []float64{0}
		}
	}
	return c.net.FitTargets(X, T)
}

// PredictProba runs one forward pass: proba is the raw output unit per
// row and pred thresholds it. A never-fitted classifier predicts
// all-benign with zero scores.
func (c *MLPClassifier) PredictProba(X [][]float64) ([]int, []float64) {
	pred := make([]int, len(X))
	if c.net == nil {
		return pred, make([]float64, len(X))
	}
	thr := c.Threshold
	if thr == 0 {
		thr = 0.5
	}
	proba := c.net.Predict01(X)
	for i, v := range proba {
		if v > thr {
			pred[i] = 1
		}
	}
	return pred, proba
}

// Predict thresholds the output unit.
func (c *MLPClassifier) Predict(X [][]float64) []int {
	pred, _ := c.PredictProba(X)
	return pred
}

// Proba returns the raw output unit per row.
func (c *MLPClassifier) Proba(X [][]float64) []float64 {
	_, proba := c.PredictProba(X)
	return proba
}
