package mlkit

// FitObserver receives per-epoch progress from iterative trainers: the
// model family name ("mlp", "autoencoder", "kitnet", "gmm",
// "linear_svm", "ocsvm"), the zero-based epoch (or EM iteration) index,
// and that epoch's training loss. The loss semantics are per-family —
// mean squared reconstruction error for the neural models, mean hinge
// objective for the SVMs, negative mean log-likelihood for the GMM — but
// within one fit the sequence is comparable across epochs, which is what
// a loss curve needs.
//
// Observers are called synchronously from Fit, at most once per epoch;
// an observer that blocks slows training down. Models never call a nil
// observer, so the disabled path costs one nil check per epoch.
type FitObserver interface {
	FitEpoch(model string, epoch int, loss float64)
}

// ObservableFitter is implemented by every iterative model — and by the
// wrappers that contain one (Thresholded, DetectorPipeline,
// VotingEnsemble) — to accept a FitObserver before Fit runs. Wrappers
// forward the observer to their inner models, so attaching one to the
// outermost classifier is enough.
type ObservableFitter interface {
	SetFitObserver(FitObserver)
}

// named wraps an observer, overriding the model name the inner trainer
// reports — the Autoencoder reuses the MLP training loop but should show
// up as "autoencoder" in a loss curve.
type named struct {
	o    FitObserver
	name string
}

// FitEpoch forwards with the fixed model name.
func (n named) FitEpoch(_ string, epoch int, loss float64) {
	n.o.FitEpoch(n.name, epoch, loss)
}

// forwardObserver attaches o to any value that accepts one.
func forwardObserver(v any, o FitObserver) {
	if of, ok := v.(ObservableFitter); ok {
		of.SetFitObserver(o)
	}
}

// SetFitObserver forwards the observer to the wrapped detector.
func (t *Thresholded) SetFitObserver(o FitObserver) { forwardObserver(t.Detector, o) }

// SetFitObserver forwards the observer to the inner detector.
func (p *DetectorPipeline) SetFitObserver(o FitObserver) { forwardObserver(p.Detector, o) }

// SetFitObserver forwards the observer to every member.
func (v *VotingEnsemble) SetFitObserver(o FitObserver) {
	for _, m := range v.Members {
		forwardObserver(m, o)
	}
}
