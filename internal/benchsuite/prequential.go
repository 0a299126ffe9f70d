package benchsuite

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
)

// PrequentialConfig scopes one drifting-traffic prequential benchmark:
// a trace whose traffic distribution shifts mid-stream (phase A's
// environment is replaced by phase B's), scored window-by-window under
// three adaptation strategies.
type PrequentialConfig struct {
	// PhaseA / PhaseB are the dataset IDs whose traffic forms the stream
	// before / after the drift point. Defaults: P1 (Mirai) → P4 (ARP
	// MitM). Both must share a link type.
	PhaseA, PhaseB string
	// Scale sizes the synthesized phases; 0 means 1.0. Small scales
	// leave too few post-drift chunks for partial fits to adapt.
	Scale float64
	// Seed drives model seeds and reservoir sampling.
	Seed int64
	// Model is the pipeline's model_type, "" meaning mlp; the online arm
	// only scores with one that cannot partial-fit.
	Model string
	// WindowRows is the F1 window and streaming chunk size; 0 means 64.
	WindowRows int
	// RetrainPacing is the per-chunk delay of the daemon arm's source,
	// giving the background fit and shadow phase chunks to land on; 0
	// means 2ms.
	RetrainPacing time.Duration
}

func (c PrequentialConfig) withDefaults() PrequentialConfig {
	if c.PhaseA == "" {
		c.PhaseA = "P1"
	}
	if c.PhaseB == "" {
		c.PhaseB = "P4"
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Model == "" {
		c.Model = "mlp"
	}
	if c.WindowRows <= 0 {
		c.WindowRows = 64
	}
	if c.RetrainPacing <= 0 {
		c.RetrainPacing = 2 * time.Millisecond
	}
	return c
}

// PrequentialPoint is one window of a prequential curve.
type PrequentialPoint struct {
	Window   int     `json:"window"`
	StartRow int     `json:"start_row"`
	Rows     int     `json:"rows"`
	F1       float64 `json:"f1"`
	Accuracy float64 `json:"accuracy"`
}

// PrequentialArm is one adaptation strategy's curve over the drifting
// stream, with its pre/post-drift aggregates and, for the daemon arm,
// the retrain/hot-swap evidence.
type PrequentialArm struct {
	// Name is "static" (warmup model, never updated), "online"
	// (prequential test-then-train partial fit), or "retrain"
	// (drift-triggered background retrain + shadow-gated hot swap via the
	// daemon).
	Name        string             `json:"name"`
	Points      []PrequentialPoint `json:"points"`
	OverallF1   float64            `json:"overall_f1"`
	PreDriftF1  float64            `json:"pre_drift_f1"`
	PostDriftF1 float64            `json:"post_drift_f1"`
	DriftEvents int                `json:"drift_events"`
	// Verdicts counts scored rows; it must equal the stream length
	// (no dropped chunks) in every arm.
	Verdicts int `json:"verdicts"`
	// Retrain-arm evidence: background retrains run, the active model
	// generation at drain (1 = never swapped), and the final shadow
	// divergence of the last decided swap.
	Retrains       int     `json:"retrains,omitempty"`
	Generation     int     `json:"generation,omitempty"`
	SwapOutcome    string  `json:"swap_outcome,omitempty"`
	ShadowDisagree float64 `json:"shadow_disagree,omitempty"`
	ShadowScoreMAD float64 `json:"shadow_score_mad,omitempty"`
}

// PrequentialReport is the full benchmark output (BENCH_PR9.json).
type PrequentialReport struct {
	PhaseA     string           `json:"phase_a"`
	PhaseB     string           `json:"phase_b"`
	Model      string           `json:"model"`
	Scale      float64          `json:"scale"`
	Seed       int64            `json:"seed"`
	WindowRows int              `json:"window_rows"`
	WarmupRows int              `json:"warmup_rows"`
	StreamRows int              `json:"stream_rows"`
	DriftRow   int              `json:"drift_row"`
	Arms       []PrequentialArm `json:"arms"`
}

// DriftScenario synthesizes the drifting trace: a warmup half of phase A
// (interleave-split so both halves cover A's attack phases), then a
// stream of A's other half followed by all of phase B with timestamps
// shifted to continue A's timeline. driftRow is the stream row where
// phase B begins.
func DriftScenario(c PrequentialConfig) (warmup, stream *dataset.Labeled, driftRow int, err error) {
	c = c.withDefaults()
	specA, okA := dataset.Get(c.PhaseA)
	specB, okB := dataset.Get(c.PhaseB)
	if !okA || !okB {
		return nil, nil, 0, fmt.Errorf("benchsuite: unknown phase dataset (%s, %s)", c.PhaseA, c.PhaseB)
	}
	dsA := specA.Generate(c.Scale)
	dsB := specB.Generate(c.Scale)
	if dsA.Link != dsB.Link {
		return nil, nil, 0, fmt.Errorf("benchsuite: drift phases mix link types (%v, %v)", dsA.Link, dsB.Link)
	}
	warmup, streamA := InterleaveSplit(dsA)
	driftRow = len(streamA.Packets)
	stream, err = dataset.Concat(streamA, dsB)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("benchsuite: drift scenario: %w", err)
	}
	stream.Name = c.PhaseA + "+" + c.PhaseB + "/drift"
	stream.Granularity = dataset.Packet
	return warmup, stream, driftRow, nil
}

// prequentialPipeline is the shared packet pipeline of all three arms:
// stateless per-packet features, a z-score scaler fitted on the warmup,
// the model, and a Page-Hinkley monitor on the prediction stream.
func prequentialPipeline(model string) *core.Pipeline {
	return &core.Pipeline{
		Name:        "prequential-" + model,
		Granularity: "packet",
		Ops: []core.OpSpec{
			{Func: "field_extract", Input: []string{core.InputName}, Output: "X",
				Params: map[string]any{"fields": []any{
					"len", "ttl", "proto", "dst_port", "tcp_syn", "payload_len"}}},
			{Func: "normalize", Input: []string{"X"}, Output: "Xn", Params: map[string]any{"kind": "zscore"}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": model}},
			{Func: "train", Input: []string{"m", "Xn"}, Output: "fit"},
			// Two-sided: the decayed model's failure mode is a score
			// collapse (missed attacks), a mean decrease an upward-only
			// test never sees. Lambda sits above the phase-A burst peaks
			// so in-distribution traffic does not trigger retrains.
			{Func: "drift_detect", Input: []string{"fit"}, Output: "drift",
				Params: map[string]any{"lambda": 15.0, "min_samples": 32, "two_sided": true}},
		},
	}
}

// RunPrequential executes the drifting-traffic benchmark: one warmup fit
// shared by design across arms (same seed, same warmup data), then the
// static, online and retrain arms over the identical stream.
func RunPrequential(c PrequentialConfig) (*PrequentialReport, error) {
	c = c.withDefaults()
	warmup, stream, driftRow, err := DriftScenario(c)
	if err != nil {
		return nil, err
	}
	rep := &PrequentialReport{
		PhaseA: c.PhaseA, PhaseB: c.PhaseB, Model: c.Model,
		Scale: c.Scale, Seed: c.Seed, WindowRows: c.WindowRows,
		WarmupRows: len(warmup.Packets), StreamRows: len(stream.Packets),
		DriftRow: driftRow,
	}
	newEng := func() (*core.Engine, error) {
		eng := core.NewEngine(prequentialPipeline(c.Model))
		eng.Seed = c.Seed
		if err := eng.Train(warmup); err != nil {
			return nil, fmt.Errorf("benchsuite: warmup fit: %w", err)
		}
		return eng, nil
	}

	for _, online := range []bool{false, true} {
		name := "static"
		if online {
			name = "online"
		}
		eng, err := newEng()
		if err != nil {
			return nil, err
		}
		res, err := eng.TestStream(stream, core.StreamConfig{ChunkRows: c.WindowRows, Online: online})
		if err != nil {
			return nil, fmt.Errorf("benchsuite: %s arm: %w", name, err)
		}
		arm := buildArm(name, res.Truth, res.Pred, driftRow, c.WindowRows)
		arm.DriftEvents = eng.LastStream.DriftEvents
		rep.Arms = append(rep.Arms, arm)
	}

	retrain, err := runRetrainArm(c, newEng, stream, driftRow)
	if err != nil {
		return nil, err
	}
	rep.Arms = append(rep.Arms, retrain)
	return rep, nil
}

// runRetrainArm streams the trace through a resident daemon pipeline
// with drift-triggered background retraining and shadow-gated hot swap,
// reconstructing the prequential curve from the alert stream.
func runRetrainArm(c PrequentialConfig, newEng func() (*core.Engine, error), stream *dataset.Labeled, driftRow int) (PrequentialArm, error) {
	var arm PrequentialArm
	eng, err := newEng()
	if err != nil {
		return arm, err
	}
	met := obs.NewMetrics()
	d := daemon.New(daemon.Config{Metrics: met})
	var alerts bytes.Buffer
	p, err := d.Start(daemon.PipeConfig{
		Name:   "prequential",
		Engine: eng,
		Source: daemon.NewReplaySource(dataset.NewSliceSource(stream), 0, c.RetrainPacing),
		Stream: core.StreamConfig{ChunkRows: c.WindowRows},
		Alerts: &alerts,
		Retrain: daemon.RetrainConfig{
			Enabled:        true,
			ReservoirCap:   4096,
			MinRows:        2 * c.WindowRows,
			CooldownChunks: 4,
			Seed:           c.Seed,
			// Refit on fresh post-drift rows only: a uniform all-history
			// reservoir stays dominated by pre-drift traffic right when
			// the drift fires, and a candidate fitted on it would relearn
			// the stale regime.
			FreshData: true,
			// The gate is intentionally wide open: post-drift the candidate
			// is expected to disagree with the decayed active model, and the
			// divergence is reported rather than used to veto promotion.
			Swap: daemon.SwapOptions{AutoDecide: true, ShadowChunks: 2, MaxDisagree: 1.0},
		},
	})
	if err != nil {
		return arm, fmt.Errorf("benchsuite: retrain arm: %w", err)
	}
	<-p.Done()
	if err := p.Drain(); err != nil {
		return arm, fmt.Errorf("benchsuite: retrain arm: %w", err)
	}
	truth := make([]int, 0, len(stream.Packets))
	pred := make([]int, 0, len(stream.Packets))
	sc := bufio.NewScanner(bytes.NewReader(alerts.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var a daemon.Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			return arm, fmt.Errorf("benchsuite: retrain arm: bad alert line: %w", err)
		}
		truth = append(truth, a.Truth)
		pred = append(pred, a.Pred)
	}
	if err := sc.Err(); err != nil {
		return arm, err
	}
	arm = buildArm("retrain", truth, pred, driftRow, c.WindowRows)
	st := p.Status()
	arm.Verdicts = int(st.Verdicts)
	arm.Generation = st.ModelGeneration
	if st.LastSwap != nil {
		arm.SwapOutcome = st.LastSwap.Outcome
		arm.ShadowDisagree = st.LastSwap.DisagreeFrac
		arm.ShadowScoreMAD = st.LastSwap.ScoreMAD
	}
	arm.DriftEvents = int(met.Counter("lumen_drift_events_total",
		"Drift-detector events observed, per pipeline.",
		"pipeline", "prequential").Value())
	for _, outcome := range []string{"ok", "error"} {
		arm.Retrains += int(met.Counter("lumen_retrain_total",
			"Drift-triggered background retrains, by outcome.",
			"pipeline", "prequential", "outcome", outcome).Value())
	}
	return arm, nil
}

// buildArm windows one arm's row-ordered truth/pred streams into the
// prequential curve and its drift-split aggregates.
func buildArm(name string, truth, pred []int, driftRow, window int) PrequentialArm {
	arm := PrequentialArm{Name: name, Verdicts: len(pred)}
	n := len(truth)
	if len(pred) < n {
		n = len(pred)
	}
	for start, w := 0, 0; start < n; start, w = start+window, w+1 {
		end := start + window
		if end > n {
			end = n
		}
		arm.Points = append(arm.Points, PrequentialPoint{
			Window: w, StartRow: start, Rows: end - start,
			F1:       mlkit.F1Score(truth[start:end], pred[start:end]),
			Accuracy: mlkit.Accuracy(truth[start:end], pred[start:end]),
		})
	}
	arm.OverallF1 = mlkit.F1Score(truth[:n], pred[:n])
	if driftRow > 0 && driftRow < n {
		arm.PreDriftF1 = mlkit.F1Score(truth[:driftRow], pred[:driftRow])
		arm.PostDriftF1 = mlkit.F1Score(truth[driftRow:], pred[driftRow:])
	}
	return arm
}
