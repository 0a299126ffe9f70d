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
// the whole trace arrives as one chunk, which is how Engine.Train and
// Test run. Every depth runs the same loop (see streamExec.run) and
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
	// Online makes a test pass prequential (test-then-train): the train
	// op scores each chunk with the model as fitted before the chunk
	// arrived, then partial-fits it as labelled training data when the
	// model can (mlkit.CanPartialFit); any other model only scores. A
	// train pass always fits whole, at drain, and RunStream refuses
	// Online on one.
	Online bool `json:"-"`
}

// Stage is where a RunStream pass runs one op of its plan.
type Stage uint8

const (
	// StageWorker ops stream: order-free and fed only by other worker
	// values, they run in a chunk's ops stage, ahead of the sink, over a
	// job-local carry.
	StageWorker Stage = iota
	// StageOrdered ops stream too, but the sink runs them in stream order
	// over the pass's shared carry.
	StageOrdered
	// StageSink ops are flow sinks: fed packet by packet in the chunk
	// loop, their flows leave as they close.
	StageSink
	// StageClose ops run as flows close. They are deferred, yet row-local
	// over the flows of sink StreamPlan.CloseSink, so a pass runs them
	// over each block of up to 512 flows the sink releases, in canonical
	// order, while the stream runs, and only the last block waits for
	// drain. These are flow_features over the sink and the ops after it
	// that are row-local in the mode, when every input is the sink's
	// flows, a close op's output or a non-frame streamed value, nothing
	// that waits for drain reads their output, and every verdict comes
	// from them: a test-mode flow pipeline's featurize, normalize and
	// score, never a train-mode fit, which reads every row at once. A
	// pass the shared cache serves runs them at drain over the whole
	// trace.
	StageClose
	// StageDrain ops run once, at drain, over the whole trace.
	StageDrain
)

var stageNames = [...]string{"worker", "ordered", "sink", "close", "drain"}

// String returns the stage's name.
func (s Stage) String() string { return stageNames[s] }

// streamed reports whether the stage runs once per chunk.
func (s Stage) streamed() bool { return s <= StageOrdered }

// StreamPlan is the static split of a pipeline into the stages of a
// RunStream pass, derived from the op table before any packet is read.
// The per-op slices are indexed like Pipeline.Ops.
type StreamPlan struct {
	// Stage[i] is where op i runs.
	Stage []Stage
	// StatCap[i] is how many member stats flow sink i attaches to each
	// flow: the most that any reader of its output reads (the op's stats
	// trait), so 0 when every reader takes only the flow's counters and
	// AllStats when some reader takes every stat. 0 for other ops.
	StatCap []int
	// ConnSink is the index of the first flow sink that assembles
	// connections, -1 when the plan assembles none: the sink whose
	// connections a hooked pass hands to StreamHooks.ConnsClosed.
	ConnSink int
	// Accum holds the names of streamed values that some deferred op
	// reads: their per-chunk frames are retained and concatenated at
	// drain, any other value kept as of the latest chunk. Streamed values
	// consumed only by streamed ops are never kept.
	Accum map[string]bool
	// Decode is how deep the pass looks into its packets: the union of
	// the decode traits of every reader of the raw chunk. An optimization
	// only: accessors still decode on demand.
	Decode netpkt.DecodeHint
	// CloseSink is the flow sink the StageClose ops read, -1 when none
	// runs at close.
	CloseSink int
	// Barrier names the first op that runs only at drain; nil when every
	// op streams or runs as flows close.
	Barrier *PlanBarrier
	// defs[i] is op i's registered definition, resolved once for the pass.
	defs []*opDef
}

// PlanBarrier is the first op of a plan that runs only at drain, and why:
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
func (e *Engine) StreamPlan(mode Mode) (*StreamPlan, error) {
	defs, err := e.check()
	if err != nil {
		return nil, err
	}
	pl := &StreamPlan{
		Stage:    make([]Stage, len(e.P.Ops)),
		StatCap:  make([]int, len(e.P.Ops)),
		Accum:    map[string]bool{},
		ConnSink: -1,
		defs:     defs,
	}
	reasons := make([]string, len(e.P.Ops))
	// A streamed op runs in the ops stage only if it is order-free and
	// everything it reads is produced in that stage (or is the chunk
	// itself); anything downstream of an ordered op is ordered too.
	streamedVal := map[string]bool{InputName: true}
	workerVal := map[string]bool{InputName: true}
	sinkOf := map[string]int{}
	for i, op := range e.P.Ops {
		t := defs[i].traits
		for _, in := range op.Input {
			if j, ok := sinkOf[in]; ok {
				n := AllStats
				if t.stats != nil {
					n = t.stats(params(op.Params))
				}
				pl.StatCap[j] = max(pl.StatCap[j], n)
			}
		}
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
			pl.Stage[i] = StageSink
			sinkOf[op.Output] = i
			// check() has already accepted the params.
			if _, gran, _ := flowParams(params(op.Params)); pl.ConnSink < 0 && gran == dataset.ConnectionG {
				pl.ConnSink = i
			}
			continue
		case t.streams(mode):
			streamedVal[op.Output] = true
			ordered := t.ordered != nil && t.ordered(params(op.Params))
			worker := !ordered && firstMissing(workerVal, op.Input) == ""
			if !worker {
				pl.Stage[i] = StageOrdered
			}
			workerVal[op.Output] = worker
			continue
		default:
			reason = "fits global state in train mode"
		}
		pl.Stage[i], reasons[i] = StageDrain, reason
		// Deferred ops pull their streamed inputs from the accumulator.
		for _, in := range op.Input {
			if in != InputName && streamedVal[in] {
				pl.Accum[in] = true
			}
		}
	}
	pl.CloseSink = closeOps(e.P, pl, mode)
	for i, reason := range reasons {
		if pl.Stage[i] == StageDrain {
			op := e.P.Ops[i]
			pl.Barrier = &PlanBarrier{Index: i, Func: op.Func, Output: op.Output, Reason: reason}
			break
		}
	}
	return pl, nil
}

// closeOps moves the plan's StageClose ops out of StageDrain and
// returns the sink they read: none, and sink -1, unless the first flow
// sink has row-local deferred readers that make every verdict.
func closeOps(p *Pipeline, pl *StreamPlan, mode Mode) int {
	ops := p.Ops
	sink := slices.Index(pl.Stage, StageSink)
	if sink < 0 {
		return -1
	}
	prod := make(map[string]int, len(ops))
	for i, op := range ops {
		prod[op.Output] = i
	}
	closes := make([]bool, len(ops))
	fits := func(i int) bool {
		fromBlock := false
		for _, in := range ops[i].Input {
			j, ok := prod[in]
			switch {
			case ok && (j == sink || closes[j]):
				fromBlock = true
			case !ok || !pl.Stage[j].streamed() || pl.defs[j].sig.out == KindFrame:
				return false
			}
		}
		return fromBlock
	}
	readWhole := func(i int) bool {
		for k, op := range ops {
			if pl.Stage[k] == StageDrain && !closes[k] && slices.Contains(op.Input, ops[i].Output) {
				return true
			}
		}
		return false
	}
	for i, op := range ops {
		rowLocal := pl.defs[i].traits.streams(mode) || slices.Contains(op.Input, ops[sink].Output)
		closes[i] = pl.Stage[i] == StageDrain && rowLocal && fits(i)
	}
	// Dropping an op read whole strands its readers: repeat until
	// nothing changes.
	for changed := true; changed; {
		changed = false
		for i := range ops {
			if closes[i] && (!fits(i) || readWhole(i)) {
				closes[i], changed = false, true
			}
		}
	}
	// Verdicts come from one place, so the rows of a pass are in the same
	// order at every chunk size.
	for i := range ops {
		if !closes[i] && pl.defs[i].sig.out == KindTrained {
			return -1
		}
	}
	if !slices.Contains(closes, true) {
		return -1
	}
	for i := range closes {
		if closes[i] {
			pl.Stage[i] = StageClose
		}
	}
	return sink
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
// assembler, which holds the flows open or waiting for release, plus the
// flows it has released, in canonical order, that the pass has not yet
// handed on. A sink the plan's StageClose ops read hands them on a block
// at a time (streamExec.scoreClosed); any other keeps every one for the
// drain pass.
// Each flow keeps its label and the stats of its first statCap members,
// so the sink retains nothing per packet beyond what its readers read.
type flowSinkState struct {
	op       int // index of the flow_assemble op
	gran     dataset.Granularity
	asm      *flow.Assembler
	released []*flow.Flow
	// done counts the flows handed on in blocks: the unit index of the
	// first flow in released.
	done int
	// statCap is how many member stats each flow keeps (StreamPlan.
	// StatCap); slab holds the first array of each flow's stats.
	statCap int
	slab    flow.StatSlab
	// attacks interns the attack names the sink's flows are labelled
	// with (see Flows.attacks).
	attacks []string
	// open, held and evicted are the sink's lumen_flow_open,
	// lumen_flow_held and lumen_flow_evicted_total series (nil with
	// metrics off); reported is how many closed flows the counter has
	// been told of.
	open, held *obs.Gauge
	evicted    *obs.Counter
	reported   int
	// flows is the sink's output when the shared cache served or computed
	// it whole (see streamExec.feedSinks); nil while it is being fed.
	flows *Flows
}

// newFlowSink builds the sink of flow_assemble op i from its params,
// keeping statCap member stats a flow; m (nil-safe) receives its
// series under output's name.
func newFlowSink(i int, p params, statCap int, m *obs.Metrics, output string) (*flowSinkState, error) {
	opts, gran, err := flowParams(p)
	if err != nil {
		return nil, err
	}
	s := &flowSinkState{
		op: i, gran: gran, statCap: statCap,
		open: m.Gauge("lumen_flow_open",
			"Flows a streaming run's flow_assemble sink holds open, as of its most recent chunk.", "output", output),
		held: m.Gauge("lumen_flow_held",
			"Closed flows a streaming run's flow_assemble sink holds until no open flow started before them, as of its most recent chunk.", "output", output),
		evicted: m.Counter("lumen_flow_evicted_total",
			"Flows a streaming run's flow_assemble sink closed mid-stream, idle past the timeout.", "output", output),
	}
	if gran == dataset.UniflowG {
		s.asm = flow.NewUniflowAssembler(opts)
	} else {
		s.asm = flow.NewConnAssembler(opts)
	}
	return s, nil
}

// feedFlows pushes a chunk's packets through every sink in stream order
// (labels and attacks align with views), then takes what each sink's
// assembler can release.
func feedFlows(sinks []*flowSinkState, views []netpkt.PacketView, labels []int, attacks []string) {
	for i := range views {
		sum := views[i].Summary()
		malicious := i < len(labels) && labels[i] != 0
		attack := ""
		if malicious && i < len(attacks) {
			attack = attacks[i]
		}
		for _, s := range sinks {
			s.add(&sum, malicious, attack)
		}
	}
	for _, s := range sinks {
		s.released = s.asm.Release(s.released)
	}
}

// finish closes every flow still open (end of stream) and returns the
// flows the sink has not handed on, in canonical order: on a sink that
// keeps its flows for the flush, every flow of the pass.
func (s *flowSinkState) finish() *Flows {
	s.released = s.asm.ReleaseAll(s.released)
	return &Flows{Granularity: s.gran, Flows: s.released, attacks: s.attacks}
}

// pending returns how many released flows the sink has not handed on.
func (s *flowSinkState) pending() int { return len(s.released) }

// handOn returns the first n pending flows as a Flows value of their own
// and forgets them.
func (s *flowSinkState) handOn(n int) *Flows {
	out := &Flows{Granularity: s.gran, Flows: slices.Clone(s.released[:n]), attacks: s.attacks}
	s.done += n
	// Shift the rest down in place, clearing the vacated tail so the
	// backing array keeps nothing alive.
	k := copy(s.released, s.released[n:])
	clear(s.released[k:])
	s.released = s.released[:k]
	return out
}

// add feeds one packet's summary to the sink's assembler and attaches
// the packet's stat to the flow it joined (the assembler's newest) while
// that flow holds fewer than statCap. The first malicious member labels
// the flow with its attack name.
func (s *flowSinkState) add(sum *netpkt.PacketSummary, malicious bool, attack string) {
	s.asm.Feed(sum)
	if !sum.HasTuple {
		return
	}
	f := s.asm.Newest()
	if len(f.Stats) < s.statCap {
		f.AddStat(flow.StatOf(sum), &s.slab)
	}
	if malicious && f.Label == 0 {
		f.Label = s.attackID(attack)
	}
}

// attackID interns a malicious packet's attack name (possibly empty) as
// a flow label. Traces name a handful of attacks, in runs.
func (s *flowSinkState) attackID(name string) uint32 {
	for k := len(s.attacks) - 1; k >= 0; k-- {
		if s.attacks[k] == name {
			return uint32(k + 1)
		}
	}
	s.attacks = append(s.attacks, name)
	return uint32(len(s.attacks))
}

// report publishes the sink's open and held flow counts and the flows
// it has closed since the previous report.
func (s *flowSinkState) report() {
	open, held := s.asm.Open(), s.asm.Held()
	s.open.Set(float64(open))
	s.held.Set(float64(held))
	closed := s.done + s.pending() + held
	s.evicted.Add(uint64(closed - s.reported))
	s.reported = closed
}

// RunStream executes the pipeline over a chunked packet source in
// bounded memory; it is the engine's one executor, and Train and Test are
// its whole-trace passes. Its StreamPlan gives every op one Stage: ops
// that are row-local in the given mode run once per chunk, a flow
// pipeline's scoring once per block of closed flows, and barrier ops
// (global aggregation, fitting) once, in a drain pass over the
// accumulated intermediate frames, where they see the whole trace — the
// result is bit-identical at every chunk size. A chunk, a block and the
// drain pass are each a job that one op loop runs a stage over and one
// fold absorbs into the pass. Each value is dropped from a job's
// environment once its last reader there has run (dead-value
// elimination).
//
// One loop (streamExec.run) feeds one ordered sink (sinkChunk) in stream
// order, at whatever cfg.PipelineDepth was asked for: on the caller's
// goroutine at depth 0, behind a source goroutine and an ops goroutine
// over bounded channels at depth > 0. Hooked and Online passes run at
// every depth. cfg.Workers above 1 is refused, and so is cfg.Online on a
// train pass, which always fits whole. A source that ends cleanly
// before its first chunk still gets a pass over one empty chunk (Seq 0,
// Base 0). A pass that fails, panics included, releases every chunk it
// was handed, leaves no goroutine behind, drains its source when the
// source has a Drain method, and reports the source's Err beside its
// own error.
//
// Memory: peak state is the in-flight chunks (one at depth 0, O(depth)
// staged) plus whatever the plan must retain — accumulated feature
// frames for deferred ops, and, when the plan assembles flows, its flows,
// each holding its counters, its label and a 16-byte stat for each of
// its first StreamPlan.StatCap member packets: none when the plan's flow
// features are all counters (A14), the first first_n when the rest are
// first_n_* features, every one otherwise. Each assembler holds the flows
// open and the closed ones waiting for release, which waits for every
// flow that started earlier to close (the lumen_flow_open and
// lumen_flow_held gauges). A plan whose StageClose ops read the sink
// scores the released flows in blocks of at most 512 as the stream runs
// and drops each block, adding one block's frame and matrix; a pass the
// cache serves, or a plan that waits for drain, keeps every flow of the
// pass for the drain pass. Packets themselves never outlive
// their chunk: every finished chunk is recycled to its source and its
// backing reference released. Verdict rows leave one way: each chunk's
// and each block's go to StreamHooks.AfterChunk. The pass keeps none,
// so a fully streamed hooked test pass holds O(chunk) however long it
// runs, and a hooked flow pass that scores at close the flows open or
// waiting and one block, not every flow it has seen. A pass that is not
// Online, accumulates nothing for the flush and is not served by the
// shared cache draws frame columns, the scored matrix, unit indices and
// the labels and scores the model writes from an arena it reuses chunk
// after chunk, and what it still allocates is a few objects a chunk
// (about 24 B a packet on a nine-field tree pipeline, against ~320 B
// without the arena).
//
// The result: when cfg.Hooks sets no AfterChunk, the pass's own hook
// copies every row into the result it returns (about 48 B a row); with
// one, it returns nil, having handed every row to the callback (see
// StreamHooks for the contract).
//
// RunStream bypasses the shared Cache: a source has no identity to key
// its values by. TrainStream and TestStream give theirs one (see Cache).
func (e *Engine) RunStream(src dataset.Source, mode Mode, cfg StreamConfig) (*EvalResult, error) {
	return e.runStream(src, mode, cfg, nil)
}

// runStream is RunStream with the dataset src reads, nil when it has
// none (see newStreamExec).
func (e *Engine) runStream(src dataset.Source, mode Mode, cfg StreamConfig, root *dataset.Labeled) (*EvalResult, error) {
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("core: StreamConfig.Workers = %d: the ops stage is one goroutine, so only 0 or 1 is accepted", cfg.Workers)
	}
	if cfg.Online && mode == ModeTrain {
		return nil, fmt.Errorf("core: StreamConfig.Online is set on a train pass: a train pass fits whole, and Online only makes a test pass prequential")
	}
	r, err := newStreamExec(e, src, mode, cfg, root)
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
// chunks; the fitted state is identical at any chunk size.
func (e *Engine) TrainStream(ds *dataset.Labeled, cfg StreamConfig) error {
	_, err := e.runStream(dataset.NewSliceSource(ds), ModeTrain, cfg, ds)
	return err
}

// TestStream runs the fitted pipeline over the dataset chunk-by-chunk and
// returns predictions identical at any chunk size. On fully streamable pipelines
// the model scores each chunk as it arrives, so peak memory tracks the
// chunk size, not the trace size. With cfg.Hooks.AfterChunk set it
// returns nil, as RunStream does: the callback was handed every row.
func (e *Engine) TestStream(ds *dataset.Labeled, cfg StreamConfig) (*EvalResult, error) {
	if !e.trained {
		return nil, fmt.Errorf("core: Test before Train on pipeline %q", e.P.Name)
	}
	res, err := e.runStream(dataset.NewSliceSource(ds), ModeTest, cfg, ds)
	if err != nil {
		return nil, err
	}
	if res == nil && !cfg.Hooks.active() {
		return nil, fmt.Errorf("core: pipeline %q produced no predictions", e.P.Name)
	}
	return res, nil
}

// concatFrames concatenates per-chunk frames into one whole-trace frame.
// A single part is returned as-is (it already spans the trace). Metadata
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
