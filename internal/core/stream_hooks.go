package core

import (
	"fmt"

	"lumen/internal/flow"
	"lumen/internal/netpkt"
)

// ChunkUpdate describes one chunk a RunStream pass has fully absorbed:
// its position in the stream, its packets, and the verdicts streamed
// scoring produced for it. It is handed to StreamHooks.AfterChunk so a
// resident consumer (the detection daemon) can emit alerts and drive
// model lifecycle operations chunk-by-chunk instead of waiting for the
// pass to finish. What the jobs that are not a chunk's produce, each
// block of closed flows and the drain pass, is handed the same way, in
// flush updates (Flush set).
type ChunkUpdate struct {
	// Seq is the chunk's sequence number within the pass (0-based); -1 on
	// a flush update.
	Seq int
	// Base is the global index of the chunk's first packet; 0 on a flush
	// update.
	Base int
	// Flush marks an update that is not a chunk's: its Results, Drift,
	// Features and Labels are those of one block of closed flows the
	// plan's StageClose ops ran over, or of the drain pass, which runs
	// the StageDrain ops whole; Seq is -1, Base 0 and Views nil. A
	// block's update follows the chunk whose packets completed the block,
	// or comes at drain; flush updates come in row order. The drain pass
	// hands one only when it has rows, events or features.
	Flush bool
	// Views are the chunk's packets. They are valid only for the duration
	// of the callback: afterwards the chunk is recycled and released, and
	// the view bytes may alias a pooled buffer that is reused or a memory
	// mapping that unmaps. Callbacks must not retain the slice or anything
	// aliasing a view's Data; copy what must outlive the callback (e.g. a
	// PacketSummary).
	Views []netpkt.PacketView
	// Results are the evaluation results streamed test-mode scoring
	// produced for this chunk, in op order, or on a flush update the
	// rows of its block or of the drain pass. Like Views they are valid
	// only during the callback: on a recycling pass (see StreamHooks) their unit indices
	// live in memory a later chunk reuses, so copy the rows that must
	// outlive it. RunStream returns nil beside a caller's hook (see
	// StreamHooks).
	// Empty on training passes and on chunks with no scored rows; on
	// pipelines that score flows as they close, or behind a barrier, the
	// verdicts arrive in flush updates instead.
	Results []*EvalResult
	// Drift holds the drift_detect events raised during this chunk, block
	// or drain pass, in detection order, each stamped with the update's
	// Seq, valid only during the callback: copy it to retain events past
	// it. Every event LastStream.DriftEvents counts comes in one update.
	Drift []DriftEvent
	// Features / Labels are the train op's input feature matrix and
	// labels, set only when StreamHooks.WantFeatures is true and the train
	// op ran in this update's job (nil otherwise): a chunk's rows when it
	// streams, a block's when it runs as flows close, the whole trace's
	// when it runs at drain. Valid only during the callback: copy rows to
	// retain them (e.g. into a retrain reservoir).
	Features [][]float64
	Labels   []int
}

// StreamHooks are per-chunk lifecycle callbacks of one RunStream pass.
//
// AfterChunk runs once per absorbed chunk, in stream order, on the same
// goroutine that executes the ordered streamed ops — including model
// scoring — after the chunk's results are final and before the next
// chunk's ordered ops run. That ordering is the hook's contract: a
// callback may mutate fitted model state (hot swap via
// Engine.ReplaceModel or an mlkit.SwapHandle) with the guarantee that
// every chunk is scored by exactly one model configuration and no chunk
// is ever mid-score while the callback runs. A non-nil error aborts the
// stream exactly like a failing op. Hooks hold at every stream depth,
// bit-identically.
//
// AfterChunk is the one way verdicts leave a pass, which keeps no row
// it has handed on, so what it retains is what is open, not what has
// passed. What is not a chunk's goes to the callback too, in flush
// updates, the same way: one per block of closed flows the plan's
// StageClose ops score, as soon as the block fills, between chunks, and
// at drain the last, partial one, their unit indices continuing where
// the previous block's stopped; then one for the drain pass, after
// every chunk's. RunStream then returns nil. The rows of every update's
// Results, in the order they were handed, copied inside the callback,
// are the unhooked pass's result bit for bit, at every depth: a pass
// whose caller sets no AfterChunk installs one of its own that copies
// them into the result it returns, while ConnsClosed and WantFeatures
// still apply. A model the callback swaps in scores the chunks and
// blocks after it.
//
// A pass recycles its chunk scratch when nothing it produces can
// outlive the callback: it is not Online, its plan accumulates no
// streamed value for the flush (StreamPlan.Accum is all false), and the
// shared cache does not serve it. Frame columns, the scored feature
// matrix, the model's labels and scores and verdict unit indices then
// come from a per-chunk arena that the next chunk reuses once the
// callback has returned; a block of closed flows has an arena of its
// own on every pass. That is why every slice a ChunkUpdate carries is
// valid only during the callback.
type StreamHooks struct {
	// AfterChunk is called after each chunk is absorbed; see the type
	// comment for the execution contract. Nil disables the hook.
	AfterChunk func(ChunkUpdate) error
	// ConnsClosed receives the connections a pass closes, for a consumer
	// that logs them. They are those of the plan's connection sink
	// (StreamPlan.ConnSink), under its op's options, so nobody assembles
	// the stream a second time; a plan that has none gets a log-only
	// connection sink under the default flow.Options, which no op reads,
	// whose connections go after each chunk's update. It runs on the
	// goroutine that owns stream order. The calls of one pass hand on
	// every connection of the pass once, in canonical order (flow.Sort).
	// When the plan's StageClose ops read the sink, each block's
	// connections come before the block is scored. A log-only sink's and
	// a block's connections come while the stream runs and are valid only
	// during the call: the sink then reuses them for later connections,
	// so copy what must outlive the call (a conn-log renders its lines
	// inside it). A pass that closes no connection calls it once, at
	// drain, with none. A plan connection sink that no op reads as flows
	// close hands every connection on once, at drain, before the deferred
	// ops read them. A pass that fails stops calling it. The connections
	// are shared with the ops: read, do not modify. A non-nil error
	// aborts the pass.
	ConnsClosed func([]*flow.Flow) error
	// WantFeatures requests the train op's input features (and labels
	// when the frame carries them) on the update of every job the train
	// op runs in, so a consumer can maintain a retraining reservoir
	// without re-deriving the feature pipeline.
	WantFeatures bool
}

// active reports whether the caller set the per-chunk callback, beside
// which RunStream returns nil.
func (h *StreamHooks) active() bool {
	return h != nil && h.AfterChunk != nil
}

// afterChunk hands one absorbed job to the AfterChunk hook: a chunk's
// update always, a block's or the drain pass's as a flush update when it
// has rows, drift events or features. The train frame's rows go with the
// job that ran the train op.
func (r *streamExec) afterChunk(job *chunkJob) error {
	up := ChunkUpdate{
		Seq:     job.nc.Seq,
		Base:    job.nc.Base,
		Flush:   job.flush(),
		Views:   job.nc.Views,
		Results: job.results,
		Drift:   job.drift,
	}
	if r.hooks.WantFeatures && job.ran(r.e.trainOp) {
		if fr, ok := job.env[r.pl.in[r.e.trainOp][1]].(*Frame); ok {
			up.Features = fr.Matrix()
			up.Labels = fr.Labels
		}
	}
	if up.Flush && len(up.Results) == 0 && len(up.Drift) == 0 && len(up.Features) == 0 {
		return nil
	}
	if err := r.hooks.AfterChunk(up); err != nil {
		if up.Flush {
			return fmt.Errorf("core: after-chunk hook (flush): %w", err)
		}
		return fmt.Errorf("core: after-chunk hook (chunk %d): %w", job.nc.Seq, err)
	}
	return nil
}
