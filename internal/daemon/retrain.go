package daemon

import (
	"fmt"

	"lumen/internal/core"
	"lumen/internal/mlkit"
)

// RetrainConfig enables drift-triggered background retraining on a
// pipeline. The pipeline feeds every chunk's features and labels into a
// bounded uniform reservoir (the hook's WantFeatures path); when the
// pipeline's drift_detect op raises an event, a fresh model — built from
// the engine's own model spec — is fitted on a reservoir snapshot off
// the scoring goroutine and submitted as a hot swap, shadow-gated by
// Swap before it can become the active generation.
type RetrainConfig struct {
	// Enabled turns the subsystem on. Pipelines without a drift_detect op
	// never trigger, but still fill the reservoir.
	Enabled bool `json:"-"`
	// ReservoirCap bounds the retraining reservoir; 0 means 4096.
	ReservoirCap int `json:"reservoir"`
	// MinRows is the smallest reservoir fill that permits a retrain; 0
	// means 256.
	MinRows int `json:"min_rows"`
	// CooldownChunks is the minimum number of chunks between retrain
	// triggers; 0 means 32.
	CooldownChunks int `json:"cooldown_chunks"`
	// Seed drives reservoir sampling.
	Seed int64 `json:"-"`
	// FreshData flushes the reservoir at each accepted drift trigger and
	// defers the refit until MinRows fresh rows have accumulated, so the
	// candidate learns the post-drift regime instead of a mixture
	// dominated by pre-drift traffic. Without it the refit runs
	// immediately on the uniform all-history reservoir.
	FreshData bool `json:"fresh"`
	// Swap configures the shadow-divergence gate the retrained candidate
	// must pass. Zero value means shadow until an operator decides; set
	// AutoDecide for closed-loop promotion.
	Swap SwapOptions `json:"-"`
}

func (c RetrainConfig) cap() int {
	if c.ReservoirCap <= 0 {
		return 4096
	}
	return c.ReservoirCap
}

func (c RetrainConfig) minRows() int {
	if c.MinRows <= 0 {
		return 256
	}
	return c.MinRows
}

func (c RetrainConfig) cooldown() int64 {
	if c.CooldownChunks <= 0 {
		return 32
	}
	return int64(c.CooldownChunks)
}

// retrainRes is the pipeline's labelled-row reservoir (Algorithm R,
// uniform over all rows seen). Rows are copied on admission: hook
// feature matrices are only valid during the callback. Only the scoring
// goroutine touches it; background retrains work on snapshots.
type retrainRes struct {
	cap  int
	rng  *mlkit.RNG
	X    [][]float64
	y    []int
	seen int
}

func newRetrainRes(cap int, seed int64) *retrainRes {
	return &retrainRes{cap: cap, rng: mlkit.NewRNG(seed)}
}

// add absorbs one chunk's rows. labels may be nil (unlabeled feeds);
// those rows train as benign, matching the online-train convention.
func (r *retrainRes) add(X [][]float64, labels []int) {
	for i, row := range X {
		label := 0
		if i < len(labels) && labels[i] != 0 {
			label = 1
		}
		r.seen++
		if len(r.X) < r.cap {
			r.X = append(r.X, append([]float64(nil), row...))
			r.y = append(r.y, label)
		} else if j := r.rng.Intn(r.seen); j < r.cap {
			r.X[j] = append(r.X[j][:0], row...)
			r.y[j] = label
		}
	}
}

// reset empties the reservoir, restarting Algorithm R from zero rows
// seen; FreshData retrains use it so the refit sees only post-drift
// traffic.
func (r *retrainRes) reset() {
	r.X = r.X[:0]
	r.y = r.y[:0]
	r.seen = 0
}

// snapshot copies the reservoir for out-of-band fitting. Rows are
// deep-copied so a concurrent retrain never observes in-place
// replacement by later add calls.
func (r *retrainRes) snapshot() ([][]float64, []int) {
	X := make([][]float64, len(r.X))
	for i, row := range r.X {
		X[i] = append([]float64(nil), row...)
	}
	return X, append([]int(nil), r.y...)
}

// observeDrift is the per-chunk retrain hook, run on the scoring
// goroutine from afterChunk: fill the reservoir, count drift events, arm
// a retrain when one fired and the gates (cooldown, single-flight)
// allow it, and launch the armed retrain once the reservoir holds
// MinRows — immediately for all-history reservoirs, after fresh rows
// accumulate in FreshData mode.
func (p *Pipe) observeDrift(up core.ChunkUpdate) {
	if len(up.Drift) > 0 {
		p.mDrift.Add(uint64(len(up.Drift)))
	}
	if !p.retrain.Enabled {
		return
	}
	if len(up.Features) > 0 {
		p.res.add(up.Features, up.Labels)
	}
	if len(up.Drift) > 0 && !p.retrainArmed && !p.retrainBusy.Load() {
		c := p.chunks.Load()
		if p.lastRetrain == 0 || c-p.lastRetrain >= p.retrain.cooldown() {
			p.retrainArmed = true
			if p.retrain.FreshData {
				p.res.reset()
			}
		}
	}
	if !p.retrainArmed || len(p.res.X) < p.retrain.minRows() {
		return
	}
	if !p.retrainBusy.CompareAndSwap(false, true) {
		return
	}
	p.retrainArmed = false
	p.lastRetrain = p.chunks.Load()
	X, y := p.res.snapshot()
	go p.backgroundRetrain(X, y)
}

// backgroundRetrain fits a fresh model on the reservoir snapshot and
// submits it as a shadow-gated hot swap. It runs off the scoring
// goroutine: the only interaction with the pipeline is the Swap control
// message, applied at a chunk boundary like any operator-initiated swap.
func (p *Pipe) backgroundRetrain(X [][]float64, y []int) {
	defer p.retrainBusy.Store(false)
	outcome := "ok"
	if err := p.fitAndSwap(X, y); err != nil {
		outcome = "error"
	}
	p.metrics.Counter("lumen_retrain_total",
		"Drift-triggered background retrains, by outcome.",
		"pipeline", p.name, "outcome", outcome).Inc()
}

func (p *Pipe) fitAndSwap(X [][]float64, y []int) error {
	clf, err := p.eng.NewTrainableModel()
	if err != nil {
		return fmt.Errorf("daemon: retrain %q: %w", p.name, err)
	}
	if err := clf.Fit(X, y); err != nil {
		return fmt.Errorf("daemon: retrain %q: fit on %d rows: %w", p.name, len(X), err)
	}
	return p.Swap(clf, p.retrain.Swap)
}
