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

// MLP is a fully-connected feed-forward network trained one sample at a
// time by SGD with momentum on mean-squared error. Weights live in flat
// row-major linalg.Dense matrices (one allocation per layer). Inference
// over many rows runs one cache-blocked GEMM per layer (VisitOutputs);
// a training step is one Dot per unit forward, one Axpy per delta back
// and a single fused pass over the weights (trainOne). It is the
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
	// Seed drives weight init and sample order.
	Seed int64

	weights []*linalg.Dense // [layer], out×in, flat row-major
	biases  [][]float64     // [layer][out]
	velW    []*linalg.Dense
	velB    [][]float64

	// Reused scratch: layer activations (n×Sizes[l]; one row while
	// training), and one sample's deltas and target.
	acts   []*linalg.Dense // [layer+1]
	deltas [][]float64     // [layer][Sizes[l+1]]
	tgt    []float64

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
	m.deltas = make([][]float64, nl)
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
		m.deltas[l] = make([]float64, out)
	}
	m.tgt = make([]float64, m.Sizes[nl])
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

// trainOne backpropagates one (x, t) pair, applies one momentum update
// and returns the pair's squared error before it. Per-sample SGD is the
// hot loop of every online detector (KitNET trains packet by packet):
// the forward pass is one Dot per output unit, the backward pass one
// Axpy per delta, and the momentum update is fused with the gradient
// outer product into a single pass over the weights — no gradient
// matrix is materialized.
func (m *MLP) trainOne(x, t []float64) float64 {
	copy(m.acts[0].Reshape(1, m.Sizes[0]).Row(0), x)
	copy(m.tgt, t)
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
	d := m.deltas[nl-1]
	var sqErr float64
	for o, yo := range y {
		e := yo - m.tgt[o]
		sqErr += e * e
		d[o] = e * yo * (1 - yo)
	}

	// Hidden deltas: delta_l = (delta_{l+1} · W_{l+1}) ⊙ act'(a_{l+1}).
	for l := nl - 2; l >= 0; l-- {
		dl := m.deltas[l]
		for i := range dl {
			dl[i] = 0
		}
		w := m.weights[l+1]
		for o, dv := range m.deltas[l+1] {
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
		for o, dv := range m.deltas[l] {
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
// error before the update — the online form Kitsune uses, packet by
// packet.
func (m *MLP) TrainStep(x, target []float64) float64 {
	if m.weights == nil {
		m.Init()
	}
	return m.trainOne(x, target)
}

// FitTargets trains on explicit (X, T) pairs for Epochs passes, each
// one step per pair in a fresh shuffled order.
func (m *MLP) FitTargets(X, T [][]float64) error {
	if len(X) == 0 {
		return ErrNoData
	}
	if m.weights == nil {
		m.Init()
	}
	rng := NewRNG(m.Seed + 1)
	n := len(X)
	for e := 0; e < m.epochs(); e++ {
		var sqErr float64
		for _, r := range rng.Perm(n) {
			sqErr += m.trainOne(X[r], T[r])
		}
		if m.obs != nil {
			m.obs.FitEpoch("mlp", e, sqErr/float64(n))
		}
	}
	return nil
}

// VisitOutputs streams X through the network in blocks of rows and calls
// visit with each row index and its final-layer outputs. The output
// slice is scratch, only valid inside the call. Batch predict/score
// paths build on this so inference is GEMM-shaped.
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
