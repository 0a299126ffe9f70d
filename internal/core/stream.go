package core

import (
	"fmt"
	"slices"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// StreamConfig bounds the chunks a RunStream pass pulls from its source
// and sets its depth. Zero chunk bounds mean unbounded: with both zero
// the whole trace arrives as one chunk and streaming degenerates to batch
// execution. Every depth runs the same loop (see streamExec.run) and
// produces bit-identical results, and the depth asked for is the depth
// that runs: RunStream never rewrites the config.
type StreamConfig struct {
	// ChunkRows caps the packets per chunk (0 = no row bound).
	ChunkRows int `json:"chunk_rows"`
	// ChunkBytes caps the wire bytes per chunk (0 = no byte bound).
	ChunkBytes int `json:"chunk_bytes"`
	// PipelineDepth is how many chunks may queue ahead of each of the
	// ops and sink stages. At 0 the caller's goroutine cuts, prepares and
	// sinks every chunk in turn; at d > 0 a source goroutine and an ops
	// goroutine run ahead of the sink, and the pass holds O(d) chunks in
	// flight.
	PipelineDepth int `json:"depth"`
	// Workers is vestigial: the ops stage is one goroutine, so 0 and 1
	// both mean one and RunStream refuses anything above 1. It survives,
	// like StreamStats.LazyViews and Shards, because the benchmark
	// harness sets it; dropping it belongs to a benchmark PR.
	Workers int `json:"-"`
	// Hooks are optional per-chunk lifecycle callbacks (see StreamHooks).
	Hooks *StreamHooks `json:"-"`
	// Online enables in-stream learning. In ModeTrain the fitted ops
	// registered as online (the train op and the scalers: TRAIN column
	// "online" in `lumen -list-ops`) stream chunk-by-chunk through
	// partial-fit carry state instead of deferring to the flush barrier,
	// so fitting runs in bounded memory over one pass. In
	// ModeTest the train op evaluates prequentially (test-then-train):
	// each chunk is scored by the model as fitted before the chunk
	// arrived, then absorbed as labelled training data when the model
	// supports mlkit.PartialFitter.
	Online bool `json:"-"`
}

// StreamPlan is the static split of a pipeline into its streamed prefix
// and deferred (barrier) suffix, derived from the op table before any
// packet is read. The per-op slices are indexed like Pipeline.Ops.
type StreamPlan struct {
	// Streamed[i]: op i runs once per chunk.
	Streamed []bool
	// FlowSink[i]: op i is fed packet-by-packet during the chunk loop; its
	// Flows output materializes at flush.
	FlowSink []bool
	// ConnSink is the index of the first flow sink that assembles
	// connections, -1 when the plan assembles none: the sink whose
	// connections a hooked pass hands to StreamHooks.ConnsClosed.
	ConnSink int
	// Worker[i]: op i is streamed, order-free and fed only by other
	// order-free streamed values, so it runs in a chunk's ops stage,
	// ahead of the sink, over a job-local carry. Ordered[i] marks the
	// remaining streamed ops, which the sink stage runs in stream order.
	Worker  []bool
	Ordered []bool
	// Accum holds the names of streamed frame outputs that some deferred
	// op reads: their per-chunk frames are retained and concatenated at
	// flush. Streamed values consumed only by streamed ops are never kept.
	Accum map[string]bool
	// Decode is how deep the pass looks into its packets: the union of
	// the decode traits of every reader of the raw chunk. An optimization
	// only: accessors still decode on demand.
	Decode netpkt.DecodeHint
	// Barrier names the first op that runs only at flush; nil when the
	// whole plan streams.
	Barrier *PlanBarrier
	// defs[i] is op i's registered definition, resolved once for the pass.
	defs []*opDef
}

// PlanBarrier is the first op of a plan that runs only at flush, and why:
// nothing behind it, verdicts included, appears before the source drains.
type PlanBarrier struct {
	Index  int    `json:"index"`
	Func   string `json:"func"`
	Output string `json:"output"`
	// Reason is derived from the op's stream class: "whole-trace op",
	// "fits global state in train mode", or "input `x` is produced behind
	// a barrier".
	Reason string `json:"reason"`
}

// StreamPlan type-checks the pipeline and returns the plan a RunStream
// pass in the given mode executes. It classifies every op from its
// registered traits: an op streams iff its class allows it in this mode
// and every input is itself streamed (a value produced behind a barrier
// only exists at flush).
func (e *Engine) StreamPlan(mode Mode, online bool) (*StreamPlan, error) {
	defs, err := e.check()
	if err != nil {
		return nil, err
	}
	pl := &StreamPlan{
		Streamed: make([]bool, len(e.P.Ops)),
		FlowSink: make([]bool, len(e.P.Ops)),
		Worker:   make([]bool, len(e.P.Ops)),
		Ordered:  make([]bool, len(e.P.Ops)),
		Accum:    map[string]bool{},
		ConnSink: -1,
		defs:     defs,
	}
	// A streamed op runs in the ops stage only if it is order-free and
	// everything it reads is produced in that stage (or is the chunk
	// itself); anything downstream of an ordered op is ordered too.
	streamedVal := map[string]bool{InputName: true}
	workerVal := map[string]bool{InputName: true}
	for i, op := range e.P.Ops {
		t := defs[i].traits
		if t.decode != nil && slices.Contains(op.Input, InputName) {
			pl.Decode = pl.Decode.Union(t.decode(params(op.Params)))
		}
		behind := firstMissing(streamedVal, op.Input)
		var reason string
		switch {
		case t.class == classBarrier:
			reason = "whole-trace op"
		case behind != "":
			reason = "input `" + behind + "` is produced behind a barrier"
		case t.class == classFlowSink:
			pl.FlowSink[i] = true
			// check() has already accepted the params.
			if _, gran, _ := flowParams(params(op.Params)); pl.ConnSink < 0 && gran == dataset.ConnectionG {
				pl.ConnSink = i
			}
			continue
		case t.streams(mode, online):
			pl.Streamed[i] = true
			streamedVal[op.Output] = true
			ordered := t.class == classFitted && mode == ModeTrain || t.ordered != nil && t.ordered(params(op.Params))
			pl.Worker[i] = !ordered && firstMissing(workerVal, op.Input) == ""
			pl.Ordered[i] = !pl.Worker[i]
			workerVal[op.Output] = pl.Worker[i]
			continue
		default:
			reason = "fits global state in train mode"
		}
		if pl.Barrier == nil {
			pl.Barrier = &PlanBarrier{Index: i, Func: op.Func, Output: op.Output, Reason: reason}
		}
		// Deferred ops pull their streamed inputs from the accumulator.
		for _, in := range op.Input {
			if in != InputName && streamedVal[in] {
				pl.Accum[in] = true
			}
		}
	}
	return pl, nil
}

// firstMissing returns the first name not in set, "" when all are.
func firstMissing(set map[string]bool, names []string) string {
	for _, n := range names {
		if !set[n] {
			return n
		}
	}
	return ""
}

// flowSinkState is one flow_assemble op being fed incrementally: the
// assembler plus every flow completed so far (evicted mid-stream once
// idle, exactly as the batch path would have split them).
type flowSinkState struct {
	op   int // index of the flow_assemble op
	gran dataset.Granularity
	uni  *flow.UniflowAssembler
	conn *flow.ConnAssembler
	unis []*flow.Uniflow
	cons []*flow.Connection
	// open and evicted are the sink's lumen_flow_open and
	// lumen_flow_evicted_total series (nil with metrics off); reported
	// is how many evicted flows the counter has been told of.
	open     *obs.Gauge
	evicted  *obs.Counter
	reported int
}

// add feeds packet gi's summary to the sink's assembler, keeping the
// flows it evicts.
func (s *flowSinkState) add(gi int, sum *netpkt.PacketSummary) {
	if s.uni != nil {
		s.unis = append(s.unis, s.uni.Feed(gi, sum)...)
	} else {
		s.cons = append(s.cons, s.conn.Feed(gi, sum)...)
	}
}

// report publishes the sink's open-flow count and the flows it has
// evicted since the previous report.
func (s *flowSinkState) report() {
	if s.uni != nil {
		s.open.Set(float64(s.uni.Open()))
	} else {
		s.open.Set(float64(s.conn.Open()))
	}
	done := len(s.unis) + len(s.cons)
	s.evicted.Add(uint64(done - s.reported))
	s.reported = done
}

// RunStream executes the pipeline over a chunked packet source in
// bounded memory. Ops that are row-local in the given mode run once per
// chunk; barrier ops (global aggregation, fitting) are deferred to a
// flush pass over the accumulated intermediate frames, where they run
// with exact batch semantics — the result is bit-identical to run() on
// the materialized dataset, at every chunk size.
//
// One loop (streamExec.run) feeds one ordered sink (sinkChunk) in stream
// order, at whatever cfg.PipelineDepth was asked for: on the caller's
// goroutine at depth 0, behind a source goroutine and an ops goroutine
// over bounded channels at depth > 0. Hooked and Online passes run at
// every depth. cfg.Workers above 1 is refused. A pass that fails, panics
// included, releases every chunk it was handed, leaves no goroutine
// behind, and drains its source when the source has a Drain method.
//
// Memory: peak state is the in-flight chunks (one at depth 0, O(depth)
// staged) plus whatever the plan must
// retain — accumulated feature frames for deferred ops, and, when the
// plan assembles flows, one 24-byte pktStat plus label per packet (all
// flow features read of it at flush) and every flow assembled so far.
// Packets themselves never outlive their chunk: every finished chunk is
// recycled to its source and its backing reference released. Verdict
// rows outlive theirs only on an unhooked pass, which keeps every
// chunk's EvalResult (about 48 B a row) to merge into the result it
// returns. A pass with StreamHooks.AfterChunk set hands each chunk's
// rows to the callback and keeps none, so a fully streamed hooked test
// pass holds O(chunk) however long it runs, and the steady state
// allocates almost nothing per chunk.
//
// The result: an unhooked pass returns every row, bit-identical to
// batch. A hooked pass returns only the rows no callback was handed,
// the flush tail of the deferred ops, nil when the plan streams fully
// (see StreamHooks for the contract).
//
// RunStream bypasses the shared Cache: chunk results are keyed by
// stream position and fold state, which the content-addressed cache
// cannot express.
func (e *Engine) RunStream(src dataset.Source, mode Mode, cfg StreamConfig) (*EvalResult, error) {
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("core: StreamConfig.Workers = %d: the ops stage is one goroutine, so only 0 or 1 is accepted", cfg.Workers)
	}
	r, err := newStreamExec(e, src, mode, cfg)
	if err != nil {
		return nil, err
	}
	// Sources that can decode while cutting chunks get the plan's depth
	// before the first chunk is pulled; layers no op needs never parse.
	if vs, ok := src.(dataset.ViewSource); ok {
		vs.ConfigureViews(true, r.pl.Decode)
	}
	return r.run(src, cfg)
}

// TrainStream fits the pipeline by streaming the dataset in bounded
// chunks; equivalent to Train (identical fitted state) at any chunk size.
func (e *Engine) TrainStream(ds *dataset.Labeled, cfg StreamConfig) error {
	_, err := e.RunStream(dataset.NewSliceSource(ds), ModeTrain, cfg)
	return err
}

// TestStream runs the fitted pipeline over the dataset chunk-by-chunk and
// returns predictions identical to Test. On fully streamable pipelines
// the model scores each chunk as it arrives, so peak memory tracks the
// chunk size, not the trace size. With cfg.Hooks.AfterChunk set it
// returns what RunStream does, the tail no callback saw, which is nil
// when every row streamed.
func (e *Engine) TestStream(ds *dataset.Labeled, cfg StreamConfig) (*EvalResult, error) {
	if !e.trained {
		return nil, fmt.Errorf("core: Test before Train on pipeline %q", e.P.Name)
	}
	res, err := e.RunStream(dataset.NewSliceSource(ds), ModeTest, cfg)
	if err != nil {
		return nil, err
	}
	if res == nil && !cfg.Hooks.active() {
		return nil, fmt.Errorf("core: pipeline %q produced no predictions", e.P.Name)
	}
	return res, nil
}

// mergeResults stitches per-chunk evaluation results back into one, in
// chunk order. A single part is returned untouched so whole-trace
// streaming matches batch exactly (including nil-ness of empty fields);
// empty chunks contribute empty slices and vanish in the append.
func mergeResults(parts []*EvalResult) *EvalResult {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	// Size each column once: appending from nil over thousands of chunk
	// results doubles its way through several times the final size in
	// garbage. A column empty in every part stays nil.
	var nPred, nTruth, nAttacks, nScores, nIdx int
	for _, p := range parts {
		nPred += len(p.Pred)
		nTruth += len(p.Truth)
		nAttacks += len(p.Attacks)
		nScores += len(p.Scores)
		nIdx += len(p.UnitIdx)
	}
	out := &EvalResult{
		Unit:    parts[0].Unit,
		Pred:    withCap[int](nPred),
		Truth:   withCap[int](nTruth),
		Attacks: withCap[string](nAttacks),
		Scores:  withCap[float64](nScores),
		UnitIdx: withCap[int](nIdx),
	}
	for _, p := range parts {
		out.Pred = append(out.Pred, p.Pred...)
		out.Truth = append(out.Truth, p.Truth...)
		out.Attacks = append(out.Attacks, p.Attacks...)
		out.Scores = append(out.Scores, p.Scores...)
		out.UnitIdx = append(out.UnitIdx, p.UnitIdx...)
	}
	return out
}

// withCap returns an empty slice with room for n elements, nil for n = 0.
func withCap[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// concatFrames concatenates per-chunk frames into one batch-shaped frame.
// A single part is returned as-is (it already has batch shape). Metadata
// slices are present in the result if any part carries them; parts that
// lack them are zero-filled to keep rows aligned. Column schema must
// match across parts — streamed ops are deterministic per chunk, so a
// mismatch is a bug, not data.
func concatFrames(parts []*Frame) (*Frame, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	n := 0
	hasIdx, hasLabels, hasAttacks := false, false, false
	for _, p := range parts {
		n += p.N
		hasIdx = hasIdx || p.UnitIdx != nil
		hasLabels = hasLabels || p.Labels != nil
		hasAttacks = hasAttacks || p.Attacks != nil
	}
	out := NewFrame(n)
	out.Unit = parts[0].Unit
	if hasIdx {
		out.UnitIdx = make([]int, 0, n)
	}
	if hasLabels {
		out.Labels = make([]int, 0, n)
	}
	if hasAttacks {
		out.Attacks = make([]string, 0, n)
	}
	for _, p := range parts {
		if hasIdx {
			out.UnitIdx = append(out.UnitIdx, padInts(p.UnitIdx, p.N)...)
		}
		if hasLabels {
			out.Labels = append(out.Labels, padInts(p.Labels, p.N)...)
		}
		if hasAttacks {
			out.Attacks = append(out.Attacks, padStrings(p.Attacks, p.N)...)
		}
	}
	first := parts[0]
	for ci := range first.Cols {
		c := &first.Cols[ci]
		if c.IsNumeric() {
			vals := make([]float64, 0, n)
			for _, p := range parts {
				pc, err := sameCol(p, ci, c.Name, true)
				if err != nil {
					return nil, err
				}
				vals = append(vals, pc.F...)
			}
			out.AddF(c.Name, vals)
		} else {
			vals := make([]string, 0, n)
			for _, p := range parts {
				pc, err := sameCol(p, ci, c.Name, false)
				if err != nil {
					return nil, err
				}
				vals = append(vals, pc.S...)
			}
			out.AddS(c.Name, vals)
		}
	}
	for _, p := range parts {
		if len(p.Cols) != len(first.Cols) {
			return nil, fmt.Errorf("core: inconsistent chunk schemas: %d vs %d columns", len(p.Cols), len(first.Cols))
		}
	}
	return out, nil
}

// sameCol fetches column ci of p, validating it matches the schema of
// the first chunk (name and numeric/categorical type).
func sameCol(p *Frame, ci int, name string, numeric bool) (*Column, error) {
	if ci >= len(p.Cols) {
		return nil, fmt.Errorf("core: inconsistent chunk schemas: missing column %q", name)
	}
	c := &p.Cols[ci]
	if c.Name != name || c.IsNumeric() != numeric {
		return nil, fmt.Errorf("core: inconsistent chunk schemas: column %d is %q, want %q", ci, c.Name, name)
	}
	return c, nil
}

func padInts(s []int, n int) []int {
	if s == nil && n > 0 {
		return make([]int, n)
	}
	return s
}

func padStrings(s []string, n int) []string {
	if s == nil && n > 0 {
		return make([]string, n)
	}
	return s
}
