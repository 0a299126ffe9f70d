package mlkit

import (
	"fmt"
	"math"
	"sync"
)

// SwapStats accumulates the shadow-scoring divergence observed between
// the active model and a swap candidate: how often their predictions
// disagree and, when both expose class scores, how far those scores
// drift. One instance covers one shadow phase; Promote and Rollback
// return the final tally and reset it.
type SwapStats struct {
	// Chunks counts the PredictProba (or Predict) calls, one per streamed
	// chunk, observed while the shadow was attached.
	Chunks int
	// Rows counts the scored feature rows.
	Rows int
	// Disagree counts the rows where active and shadow predicted
	// different classes.
	Disagree int
	// ScoreRows counts the rows with comparable class-1 scores (both
	// models expose scores); AbsScoreSum is the accumulated
	// |active - shadow| over them.
	ScoreRows   int
	AbsScoreSum float64
}

// DisagreeFrac returns the fraction of rows where the models disagreed
// (0 when nothing was scored).
func (s SwapStats) DisagreeFrac() float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.Disagree) / float64(s.Rows)
}

// ScoreMAD returns the mean absolute difference between the two models'
// class-1 scores (0 when either model exposes no scores).
func (s SwapStats) ScoreMAD() float64 {
	if s.ScoreRows == 0 {
		return 0
	}
	return s.AbsScoreSum / float64(s.ScoreRows)
}

// String renders the tally in the form operators see in swap reports.
func (s SwapStats) String() string {
	return fmt.Sprintf("chunks=%d rows=%d disagree=%.4f score_mad=%.6f",
		s.Chunks, s.Rows, s.DisagreeFrac(), s.ScoreMAD())
}

// SwapHandle is a swap-safe model slot: a Classifier that delegates to an
// interchangeable active model and supports atomic hot swap with shadow
// scoring. Install one behind a pipeline's train op (core.ReplaceModel)
// and the pipeline keeps scoring through the handle while the model
// behind it is retargeted:
//
//	StartShadow(next)  attach a candidate; every PredictProba now also
//	                   scores it and accumulates divergence, while
//	                   verdicts keep coming from the active model only
//	Promote()          the candidate becomes active (generation += 1)
//	Rollback()         the candidate is discarded (generation unchanged)
//
// The handle is a FusedClassifier: the train op's one PredictProba call
// per chunk scores the active model once (mlkit.PredictProba, so a fused
// model walks its rows once) and an attached shadow once, and both the
// prediction and the score divergence come out of those two passes.
// Predict is a projection of it and feeds SwapStats the same way; Proba
// scores the active model alone and never touches SwapStats.
//
// All methods are mutex-guarded, so control-plane calls may come from a
// different goroutine than the scoring path. For exactly-one-model-per-
// chunk verdict attribution, issue the control calls between chunks on
// the scoring goroutine itself — core.StreamHooks.AfterChunk provides
// precisely that execution point.
type SwapHandle struct {
	mu     sync.Mutex
	active Classifier
	shadow Classifier
	gen    int
	stats  SwapStats
}

// NewSwapHandle wraps a fitted classifier as generation 1.
func NewSwapHandle(active Classifier) *SwapHandle {
	return &SwapHandle{active: active, gen: 1}
}

// Fit delegates to the active model. Resident pipelines never retrain
// through the handle, but Fit keeps SwapHandle a full Classifier.
func (h *SwapHandle) Fit(X [][]float64, y []int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.active.Fit(X, y)
}

// PredictProba scores X with the active model. While a shadow is
// attached it also scores X with the candidate, once, and folds the
// divergence into the handle's SwapStats — the returned verdicts and
// scores always come from the active model alone. proba is nil when the
// active model exposes no scores.
func (h *SwapHandle) PredictProba(X [][]float64) (pred []int, proba []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pred, proba = PredictProba(h.active, X)
	if h.shadow == nil {
		return pred, proba
	}
	h.stats.Chunks++
	if len(X) == 0 {
		return pred, proba
	}
	sp, sb := PredictProba(h.shadow, X)
	h.stats.Rows += len(pred)
	for i := range pred {
		if i < len(sp) && pred[i] != sp[i] {
			h.stats.Disagree++
		}
	}
	if proba != nil && sb != nil {
		for i := range proba {
			if i < len(sb) {
				h.stats.ScoreRows++
				h.stats.AbsScoreSum += math.Abs(proba[i] - sb[i])
			}
		}
	}
	return pred, proba
}

// Predict is PredictProba without the scores; a shadowed call counts
// toward SwapStats exactly as a PredictProba call does.
func (h *SwapHandle) Predict(X [][]float64) []int {
	pred, _ := h.PredictProba(X)
	return pred
}

// Proba returns the active model's class-1 scores, or nil when the
// active model exposes none. It never scores the shadow.
func (h *SwapHandle) Proba(X [][]float64) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if pc, ok := h.active.(ProbClassifier); ok {
		return pc.Proba(X)
	}
	return nil
}

// Generation returns the active model's generation: 1 for the initially
// installed model, incremented by every Promote.
func (h *SwapHandle) Generation() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gen
}

// Shadowing reports whether a swap candidate is currently attached.
func (h *SwapHandle) Shadowing() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shadow != nil
}

// Stats returns the divergence accumulated during the current shadow
// phase (zeroes when no shadow is attached).
func (h *SwapHandle) Stats() SwapStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// Active returns the classifier currently serving verdicts.
func (h *SwapHandle) Active() Classifier {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.active
}

// StartShadow attaches a fitted candidate for shadow scoring. It fails
// when a swap is already in progress — finish it with Promote or
// Rollback first.
func (h *SwapHandle) StartShadow(next Classifier) error {
	if next == nil {
		return fmt.Errorf("mlkit: StartShadow: nil candidate")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shadow != nil {
		return fmt.Errorf("mlkit: StartShadow: a swap is already in progress (generation %d)", h.gen)
	}
	h.shadow = next
	h.stats = SwapStats{}
	return nil
}

// Promote makes the shadow candidate the active model, increments the
// generation, and returns the shadow phase's final divergence tally.
func (h *SwapHandle) Promote() (SwapStats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shadow == nil {
		return SwapStats{}, fmt.Errorf("mlkit: Promote: no swap in progress")
	}
	h.active, h.shadow = h.shadow, nil
	h.gen++
	st := h.stats
	h.stats = SwapStats{}
	return st, nil
}

// Rollback discards the shadow candidate, keeps the active model and
// generation, and returns the shadow phase's final divergence tally.
func (h *SwapHandle) Rollback() (SwapStats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shadow == nil {
		return SwapStats{}, fmt.Errorf("mlkit: Rollback: no swap in progress")
	}
	h.shadow = nil
	st := h.stats
	h.stats = SwapStats{}
	return st, nil
}
