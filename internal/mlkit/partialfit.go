package mlkit

import (
	"fmt"
	"math"
	"slices"
)

// PartialFitter is a Classifier that can also absorb labelled rows
// incrementally, in stream order, without revisiting earlier data. The
// SGD family (logistic regression, linear SVM, MLP) implements it
// natively; Thresholded detectors implement it when their wrapped
// detector is an OnlineDetector; everything else goes through
// ReservoirRetrainer. Incremental updates are order-dependent: callers
// must feed rows in stream order for reproducible models.
type PartialFitter interface {
	Classifier
	// PartialFit updates the model with one batch of rows. A nil y is
	// treated as all-benign (label 0) — the unlabelled streaming case.
	PartialFit(X [][]float64, y []int) error
}

// OnlineTransformer is a Transformer whose parameters can be updated
// incrementally (streaming scalers).
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

// FinishFitter is an optional hook a PartialFitter may implement to run
// once after the final partial-fit batch (e.g. ReservoirRetrainer's
// closing retrain). The streaming engine calls it at end of a train run.
type FinishFitter interface {
	FinishFit() error
}

// --- SGD family -----------------------------------------------------------

// PartialFit performs one in-order SGD pass over the batch with a
// constant learning rate (no epoch decay — the stream is the epoch).
// The weight vector initializes lazily from the first batch's dimension.
func (l *LogisticRegression) PartialFit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if l.w == nil {
		l.w = make([]float64, d)
	} else if len(l.w) != d {
		return fmt.Errorf("%w: partial_fit got %d features, model has %d", ErrDimMismatch, d, len(l.w))
	}
	lr := l.LR
	if lr == 0 {
		lr = 0.1
	}
	lambda := l.Lambda
	if lambda == 0 {
		lambda = 1e-4
	}
	for i, row := range X {
		p := sigmoid(Dot(l.w, row) + l.b)
		t := 0.0
		if y != nil && y[i] != 0 {
			t = 1
		}
		g := p - t
		for j, v := range row {
			l.w[j] -= lr * (g*v + lambda*l.w[j])
		}
		l.b -= lr * g
	}
	return nil
}

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
		for _, s := range t.Detector.Score(benign) {
			t.q2.Add(s)
		}
		t.Threshold = t.q2.Value()
	}
	return nil
}

// --- streaming scalers ----------------------------------------------------

// PartialFit folds the batch into Welford running moments; Mean/Std stay
// valid after every call, so transform-after-update matches a batch Fit
// over everything seen so far (up to floating-point association).
func (s *StandardScaler) PartialFit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	if s.Mean == nil {
		s.Mean = make([]float64, d)
		s.Std = make([]float64, d)
		s.m2 = make([]float64, d)
	} else if len(s.Mean) != d {
		return fmt.Errorf("%w: partial_fit got %d features, scaler has %d", ErrDimMismatch, d, len(s.Mean))
	}
	for _, row := range X {
		s.count++
		for j, v := range row {
			delta := v - s.Mean[j]
			s.Mean[j] += delta / s.count
			s.m2[j] += delta * (v - s.Mean[j])
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.m2[j] / s.count)
	}
	return nil
}

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

// --- reservoir wrapper for batch-only models ------------------------------

// ReservoirRetrainer adapts a batch-only Classifier (KNN, GMM, forest,
// any Thresholded over a batch detector) to the PartialFitter contract:
// PartialFit maintains a uniform Algorithm-R reservoir of labelled rows
// and periodically refits the wrapped model on a copy of it. Until the
// first retrain, Predict returns all-benign.
type ReservoirRetrainer struct {
	// Model is the wrapped batch classifier, refit on each Retrain.
	Model Classifier
	// Cap bounds the reservoir; 0 means 4096.
	Cap int
	// RetrainEvery refits after this many absorbed rows; 0 means 2048,
	// negative disables automatic retrains (call Retrain explicitly).
	RetrainEvery int
	// Seed drives reservoir sampling.
	Seed int64

	rng      *RNG
	resX     [][]float64
	resY     []int
	seen     int
	sinceFit int
	fitted   bool
}

func (r *ReservoirRetrainer) cap() int {
	if r.Cap == 0 {
		return 4096
	}
	return r.Cap
}

func (r *ReservoirRetrainer) retrainEvery() int {
	if r.RetrainEvery == 0 {
		return 2048
	}
	return r.RetrainEvery
}

// PartialFit absorbs the batch into the reservoir (uniform over all rows
// seen, Algorithm R) and retrains when RetrainEvery rows have
// accumulated since the last fit. Each kept row is copied into storage
// the reservoir owns, so the caller may reuse X afterwards.
func (r *ReservoirRetrainer) PartialFit(X [][]float64, y []int) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	if r.rng == nil {
		r.rng = NewRNG(r.Seed)
	}
	capN := r.cap()
	for i, row := range X {
		label := 0
		if y != nil && y[i] != 0 {
			label = 1
		}
		r.seen++
		if len(r.resX) < capN {
			r.resX = append(r.resX, slices.Clone(row))
			r.resY = append(r.resY, label)
		} else if j := r.rng.Intn(r.seen); j < capN {
			// A fresh copy, not an overwrite: the row being replaced may be
			// held by a model fit on an earlier Snapshot.
			r.resX[j] = slices.Clone(row)
			r.resY[j] = label
		}
		r.sinceFit++
	}
	if every := r.retrainEvery(); every > 0 && r.sinceFit >= every {
		return r.Retrain()
	}
	return nil
}

// Retrain refits the wrapped model on a snapshot of the reservoir. The
// outer slices are copied so later reservoir replacement cannot mutate
// training data a fitted model retains by reference.
func (r *ReservoirRetrainer) Retrain() error {
	if len(r.resX) == 0 {
		return ErrNoData
	}
	X, y := r.Snapshot()
	if err := r.Model.Fit(X, y); err != nil {
		return err
	}
	r.fitted = true
	r.sinceFit = 0
	return nil
}

// FinishFit runs a closing retrain if rows arrived since the last one
// (or none ever ran), so an end-of-stream model reflects the full
// reservoir.
func (r *ReservoirRetrainer) FinishFit() error {
	if !r.fitted || r.sinceFit > 0 {
		return r.Retrain()
	}
	return nil
}

// Snapshot returns a copy of the current reservoir (rows shared, outer
// slices fresh) for out-of-band retraining (the daemon's background
// retrain path).
func (r *ReservoirRetrainer) Snapshot() ([][]float64, []int) {
	return append([][]float64(nil), r.resX...), append([]int(nil), r.resY...)
}

// Rows reports how many labelled rows the reservoir currently holds.
func (r *ReservoirRetrainer) Rows() int { return len(r.resX) }

// Fitted reports whether the wrapped model has been trained at least once.
func (r *ReservoirRetrainer) Fitted() bool { return r.fitted }

// Fit seeds the reservoir from the batch and retrains immediately,
// making the wrapper a drop-in Classifier.
func (r *ReservoirRetrainer) Fit(X [][]float64, y []int) error {
	if err := r.PartialFit(X, y); err != nil {
		return err
	}
	if r.sinceFit > 0 {
		return r.Retrain()
	}
	return nil
}

// PredictProba delegates to the wrapped model (hard labels stand in for
// scores when it has none); all-benign with zero scores before the first
// retrain.
func (r *ReservoirRetrainer) PredictProba(X [][]float64) ([]int, []float64) {
	if !r.fitted {
		return make([]int, len(X)), make([]float64, len(X))
	}
	return predictProbaHard(r.Model, X)
}

// Predict delegates to the wrapped model, or returns all-benign before
// the first retrain.
func (r *ReservoirRetrainer) Predict(X [][]float64) []int {
	pred, _ := r.PredictProba(X)
	return pred
}

// Proba delegates when the wrapped model reports probabilities, falling
// back to 0/1 from Predict; all-zero before the first retrain.
func (r *ReservoirRetrainer) Proba(X [][]float64) []float64 {
	_, proba := r.PredictProba(X)
	return proba
}

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

// CanPartialFit reports whether a classifier supports true incremental
// training (as opposed to reservoir replay). Thresholded wrappers are
// online exactly when their detector stack is.
func CanPartialFit(c Classifier) bool {
	switch m := c.(type) {
	case *Thresholded:
		return detectorOnline(m.Detector)
	case *ReservoirRetrainer:
		return true
	case PartialFitter:
		return true
	}
	return false
}

// AsPartialFitter returns c itself when it can partial-fit, otherwise a
// ReservoirRetrainer wrapping it (seeded for reproducible sampling).
func AsPartialFitter(c Classifier, seed int64) PartialFitter {
	if CanPartialFit(c) {
		return c.(PartialFitter)
	}
	return &ReservoirRetrainer{Model: c, Seed: seed}
}
