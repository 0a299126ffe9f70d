package daemon

import (
	"fmt"

	"lumen/internal/core"
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
		p.res.Add(up.Features, up.Labels)
	}
	if len(up.Drift) > 0 && !p.retrainArmed && !p.retrainBusy.Load() {
		c := p.chunks.Load()
		if p.lastRetrain == 0 || c-p.lastRetrain >= p.retrain.cooldown() {
			p.retrainArmed = true
			if p.retrain.FreshData {
				p.res.Reset()
			}
		}
	}
	if !p.retrainArmed || p.res.Len() < p.retrain.minRows() {
		return
	}
	if !p.retrainBusy.CompareAndSwap(false, true) {
		return
	}
	p.retrainArmed = false
	p.lastRetrain = p.chunks.Load()
	X, y := p.res.Snapshot()
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
