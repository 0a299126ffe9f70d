package mlkit

import (
	"fmt"
	"math"
	"slices"
)

// PartialFitter is a Classifier that can also absorb labelled rows
// incrementally, in stream order, without revisiting earlier data: a
// prequential pass's test-then-train step. The SGD family (linear SVM,
// MLP) implements it natively; Thresholded has the method for every
// detector, but can use it only when CanPartialFit says so.
// Incremental updates are order-dependent: callers must feed rows in
// stream order for reproducible models.
type PartialFitter interface {
	Classifier
	// PartialFit updates the model with one batch of rows. A nil y is
	// treated as all-benign (label 0) — the unlabelled streaming case.
	PartialFit(X [][]float64, y []int) error
}

// OnlineTransformer is a Transformer whose parameters can be updated
// incrementally (MinMaxScaler).
type OnlineTransformer interface {
	Transformer
	PartialFit(X [][]float64) error
}

// OnlineDetector is a Detector that can absorb unlabelled rows
// incrementally (autoencoders, KitNET, detector pipelines of online
// parts).
type OnlineDetector interface {
	Detector
	PartialFit(X [][]float64) error
}

// --- SGD family -----------------------------------------------------------

// PartialFit continues the Pegasos sub-gradient walk over the batch in
// stream order, persisting the global step count so the 1/(λt) step
// size keeps decaying across batches. The Proba calibration scale is
// refreshed from the running mean absolute margin.
func (s *LinearSVM) PartialFit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if s.w == nil {
		s.w = make([]float64, d)
	} else if len(s.w) != d {
		return fmt.Errorf("%w: partial_fit got %d features, model has %d", ErrDimMismatch, d, len(s.w))
	}
	lambda := s.Lambda
	if lambda == 0 {
		lambda = 1e-4
	}
	for i, row := range X {
		s.steps++
		yi := -1.0
		if y != nil && y[i] != 0 {
			yi = 1
		}
		eta := 1 / (lambda * float64(s.steps))
		margin := yi * (Dot(s.w, row) + s.b)
		decay := 1 - eta*lambda
		for j := range s.w {
			s.w[j] *= decay
		}
		if margin < 1 {
			for j, v := range row {
				s.w[j] += eta * yi * v
			}
			s.b += eta * yi
		}
		s.absSum += math.Abs(Dot(s.w, row) + s.b)
		s.absN++
	}
	s.scale = 1
	if m := s.absSum / float64(s.absN); m > 0 {
		s.scale = 1 / m
	}
	return nil
}

// PartialFit backpropagates each row once, in stream order. The network
// initializes lazily from the first batch's dimension; Predict/Proba on
// a never-fitted classifier return zeros.
func (c *MLPClassifier) PartialFit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if c.net == nil {
		hidden := c.Hidden
		if len(hidden) == 0 {
			hidden = []int{16}
		}
		sizes := append([]int{d}, hidden...)
		sizes = append(sizes, 1)
		c.net = &MLP{Sizes: sizes, Act: ActReLU, Epochs: c.Epochs, LR: c.LR, Seed: c.Seed}
		c.net.Init()
	}
	target := make([]float64, 1)
	for i, row := range X {
		target[0] = 0
		if y != nil && y[i] != 0 {
			target[0] = 1
		}
		c.net.TrainStep(row, target)
	}
	return nil
}

// PartialFit trains the autoencoder one online step per row, in stream
// order — the same per-sample walk Kitsune uses, so streamed training
// converges the same way batch epochs do.
func (a *Autoencoder) PartialFit(X [][]float64) error {
	if _, err := checkXY(X, nil); err != nil {
		return err
	}
	for _, row := range X {
		a.TrainOne(row)
	}
	return nil
}

// PartialFit makes KitNET's native online training reachable batch by
// batch: the first batch doubles as the grace period (feature map +
// normalization are learned from it), after which every row trains the
// ensemble and output autoencoders exactly once, in stream order. Later
// batches widen the min-max normalization before transforming.
func (k *KitNET) PartialFit(X [][]float64) error {
	if _, err := checkXY(X, nil); err != nil {
		return err
	}
	if k.flat == nil {
		k.norm = &MinMaxScaler{}
		if err := k.norm.Fit(X); err != nil {
			return err
		}
		k.buildEnsemble(X)
	} else if err := k.norm.PartialFit(X); err != nil {
		return err
	}
	k.trainRows(X)
	return nil
}

// PartialFit threads the batch through the steps (each updated before
// transforming, so scalers adapt first) and into the detector. Every
// stage must be online.
func (p *DetectorPipeline) PartialFit(X [][]float64) error {
	cur := X
	for _, s := range p.Steps {
		ot, ok := s.(OnlineTransformer)
		if !ok {
			return fmt.Errorf("mlkit: pipeline step %T cannot partial-fit", s)
		}
		if err := ot.PartialFit(cur); err != nil {
			return err
		}
		cur = ot.Transform(cur)
	}
	od, ok := p.Detector.(OnlineDetector)
	if !ok {
		return fmt.Errorf("mlkit: detector %T cannot partial-fit", p.Detector)
	}
	return od.PartialFit(cur)
}

// PartialFit feeds the benign rows of the batch to the wrapped online
// detector, then refreshes the threshold from a streaming P² estimate of
// the training-score quantile (matching Fit's calibration without
// retaining scores).
func (t *Thresholded) PartialFit(X [][]float64, y []int) error {
	od, ok := t.Detector.(OnlineDetector)
	if !ok {
		return fmt.Errorf("mlkit: detector %T cannot partial-fit", t.Detector)
	}
	benign := X
	if y != nil {
		benign = make([][]float64, 0, len(X))
		for i, row := range X {
			if y[i] == 0 {
				benign = append(benign, row)
			}
		}
	}
	if len(benign) == 0 {
		return nil
	}
	if err := od.PartialFit(benign); err != nil {
		return err
	}
	if t.Quantile > 0 {
		if t.q2 == nil {
			t.q2 = NewP2Quantile(t.Quantile)
		}
		for _, s := range t.Detector.Score(benign, nil) {
			t.q2.Add(s)
		}
		t.Threshold = t.q2.Value()
	}
	return nil
}

// --- scalers --------------------------------------------------------------

// PartialFit widens the per-feature range to cover the batch.
func (s *MinMaxScaler) PartialFit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	if s.Min == nil {
		return s.Fit(X)
	}
	if len(s.Min) != d {
		return fmt.Errorf("%w: partial_fit got %d features, scaler has %d", ErrDimMismatch, d, len(s.Min))
	}
	for _, row := range X {
		for j, v := range row {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return nil
}

// --- reservoir ------------------------------------------------------------

// Reservoir is a uniform sample of labelled rows (Algorithm R): after n
// rows, each has had the same chance cap/n to be kept, and the seed fixes
// which. Labels fold to 0/1. A kept row is a fresh copy, and a replaced
// slot gets a fresh copy too, never an overwrite, so a Snapshot stays
// valid while later Adds run (a background fit may hold one).
type Reservoir struct {
	cap    int
	rng    *RNG
	rows   [][]float64
	labels []int
	seen   int
}

// NewReservoir returns an empty reservoir of at most cap rows.
func NewReservoir(cap int, seed int64) *Reservoir {
	return &Reservoir{cap: cap, rng: NewRNG(seed)}
}

// Add absorbs a batch of rows. y may be shorter than X or nil (unlabeled
// feeds): rows without a label count as benign. The caller may reuse X
// afterwards.
func (r *Reservoir) Add(X [][]float64, y []int) {
	for i, row := range X {
		label := 0
		if i < len(y) && y[i] != 0 {
			label = 1
		}
		r.seen++
		if len(r.rows) < r.cap {
			r.rows = append(r.rows, slices.Clone(row))
			r.labels = append(r.labels, label)
		} else if j := r.rng.Intn(r.seen); j < r.cap {
			r.rows[j] = slices.Clone(row)
			r.labels[j] = label
		}
	}
}

// Reset empties the reservoir and restarts the count of rows seen; the
// random stream carries on.
func (r *Reservoir) Reset() {
	r.rows, r.labels, r.seen = nil, nil, 0
}

// Snapshot returns the kept rows and labels: fresh outer slices over rows
// no later Add modifies.
func (r *Reservoir) Snapshot() ([][]float64, []int) {
	return slices.Clone(r.rows), slices.Clone(r.labels)
}

// Len reports how many rows the reservoir holds.
func (r *Reservoir) Len() int { return len(r.rows) }

// --- capability probes ----------------------------------------------------

// detectorOnline reports whether a detector (recursing through pipeline
// composition) supports incremental training.
func detectorOnline(d Detector) bool {
	if dp, ok := d.(*DetectorPipeline); ok {
		for _, s := range dp.Steps {
			if _, ok := s.(OnlineTransformer); !ok {
				return false
			}
		}
		return detectorOnline(dp.Detector)
	}
	_, ok := d.(OnlineDetector)
	return ok
}

// CanPartialFit reports whether a classifier supports incremental
// training. Thresholded wrappers are online exactly when their detector
// stack is.
func CanPartialFit(c Classifier) bool {
	switch m := c.(type) {
	case *Thresholded:
		return detectorOnline(m.Detector)
	case PartialFitter:
		return true
	}
	return false
}
