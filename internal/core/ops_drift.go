package core

import (
	"fmt"

	"lumen/internal/mlkit"
)

func init() {
	register("drift_detect", "monitor the trained model's per-chunk score stream with a Page-Hinkley test and raise drift events on distribution shift (test runs; a pass-through in train mode)",
		opSig{in: []Kind{KindTrained}, out: KindTrained},
		opTraits{class: classRowLocal, ordered: always}, opDriftDetect)
}

// opDriftDetect folds the train op's per-chunk scores (predictions when
// the model exposes no scores) into a Page-Hinkley estimator carried
// across chunks. Detections append DriftEvents to the running chunk job,
// which surface through StreamHooks.ChunkUpdate.Drift and
// Engine.LastStream.DriftEvents — the trigger a resident daemon uses to
// schedule a background retrain. A whole-trace Test is one chunk and
// raises the same events as any chunking of the trace. In train mode the
// op passes the trained value through unchanged.
//
// Params: delta (deviation tolerance, default 0.005), lambda (detection
// threshold, default 50), min_samples (warm-up, default 30), two_sided
// (also detect mean decreases — a model gone blind — default false).
func opDriftDetect(ctx *opCtx, in []Value, p params) (Value, error) {
	tr, ok := in[0].(Trained)
	if !ok {
		return nil, fmt.Errorf("drift_detect: input must be a trained model, got %v", in[0].Kind())
	}
	if ctx.mode != ModeTest {
		return tr, nil
	}
	res := ctx.stream.lastResult
	ctx.stream.lastResult = nil
	if res == nil {
		return tr, nil
	}
	ph, ok := ctx.carry().(*mlkit.PageHinkley)
	if !ok {
		ph = &mlkit.PageHinkley{
			Delta:      p.f64("delta", 0),
			Lambda:     p.f64("lambda", 0),
			MinSamples: p.i("min_samples", 0),
			TwoSided:   p.b("two_sided", false),
		}
		ctx.setCarry(ph)
	}
	useScores := len(res.Scores) == len(res.Pred)
	for i := range res.Pred {
		x := float64(res.Pred[i])
		if useScores {
			x = res.Scores[i]
		}
		if ph.Add(x) {
			stat, mean := ph.LastDetection()
			*ctx.drift = append(*ctx.drift, DriftEvent{
				Output: ctx.outName,
				Base:   ctx.stream.base,
				Row:    i,
				Stat:   stat,
				Mean:   mean,
			})
		}
	}
	return tr, nil
}
