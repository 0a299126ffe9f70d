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
// pass to finish.
type ChunkUpdate struct {
	// Seq is the chunk's sequence number within the pass (0-based).
	Seq int
	// Base is the global index of the chunk's first packet.
	Base int
	// Views are the chunk's packets. They are valid only for the duration
	// of the callback: afterwards the chunk is recycled and released, and
	// the view bytes may alias a pooled buffer that is reused or a memory
	// mapping that unmaps. Callbacks must not retain the slice or anything
	// aliasing a view's Data; copy what must outlive the callback (e.g. a
	// PacketSummary).
	Views []netpkt.PacketView
	// Results are the evaluation results streamed test-mode scoring
	// produced for this chunk, in op order, and they are the callback's to
	// keep: the pass retains no reference, and RunStream does not return
	// these rows again (see StreamHooks). Empty on training passes, on
	// chunks with no scored rows, and on pipelines whose scoring is
	// deferred to the flush pass (flow granularities, barrier suffixes) —
	// those verdicts are the tail RunStream returns.
	Results []*EvalResult
	// Drift holds the drift_detect events raised during this chunk, in
	// detection order. The slice is pooled with the chunk job: copy it to
	// retain events past the callback.
	Drift []DriftEvent
	// Features / Labels are the train op's per-chunk input feature matrix
	// and labels, set only when StreamHooks.WantFeatures is true and the
	// feature frame streams (nil otherwise). Valid only during the
	// callback: copy rows to retain them (e.g. into a retrain reservoir).
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
// Rows belong to whoever was handed them. A pass with AfterChunk set
// keeps no verdict row it has given to the callback, so what it retains
// is what is open, not what has passed; RunStream then returns only the
// rows no callback saw, the flush tail of the deferred ops (nil when the
// plan streams fully). The rows of every ChunkUpdate.Results in stream
// order, followed by the returned tail, are the unhooked pass's result
// bit for bit, at every depth.
type StreamHooks struct {
	// AfterChunk is called after each chunk is absorbed; see the type
	// comment for the execution contract. Nil disables the hook.
	AfterChunk func(ChunkUpdate) error
	// ConnsClosed receives the connections the plan's connection sink
	// (StreamPlan.ConnSink) has closed, for a consumer that logs them: the
	// pass's own assembly, so nobody assembles the stream a second time.
	// It runs on the goroutine that owns stream order. Today it is called
	// once per pass, at flush, with every connection of the pass merged
	// and in batch order (flow.SortConnections), before the deferred ops
	// read them; a pass that fails never calls it. The connections are
	// shared with those ops: read, do not modify. Never called when the
	// plan has no connection sink. A non-nil error aborts the pass.
	ConnsClosed func([]*flow.Connection) error
	// WantFeatures requests the train op's per-chunk input features (and
	// labels when the frame carries them) on every ChunkUpdate, so a
	// consumer can maintain a retraining reservoir without re-deriving
	// the feature pipeline.
	WantFeatures bool
}

// active reports whether the per-chunk callback is set: the pass hands
// its streamed rows out instead of keeping them.
func (h *StreamHooks) active() bool {
	return h != nil && h.AfterChunk != nil
}

// afterChunk invokes the AfterChunk hook for one absorbed job.
func (r *streamExec) afterChunk(job *chunkJob) error {
	if !r.hooks.active() {
		return nil
	}
	up := ChunkUpdate{
		Seq:     job.nc.Seq,
		Base:    job.nc.Base,
		Views:   job.nc.Views,
		Results: job.results,
		Drift:   job.drift,
	}
	if r.hooks.WantFeatures && r.trainFrame != "" {
		if fr, ok := job.env[r.trainFrame].(*Frame); ok {
			up.Features = fr.Matrix()
			up.Labels = fr.Labels
		}
	}
	if err := r.hooks.AfterChunk(up); err != nil {
		return fmt.Errorf("core: after-chunk hook (chunk %d): %w", job.nc.Seq, err)
	}
	return nil
}
