package core

import (
	"fmt"
	"slices"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// streamExec is the state of one RunStream execution. The per-chunk work
// lives in chunkJob so that a staged pass can prepare a chunk on the ops
// goroutine while the sink absorbs an earlier one; everything on
// streamExec itself is only ever touched by the one goroutine that owns
// stream order (the caller's: it runs the sink at every depth).
type streamExec struct {
	e    *Engine
	mode Mode
	pl   *StreamPlan
	meta dataset.SourceMeta
	// sc carries cross-chunk fold state for the ordered ops; only the
	// goroutine that owns stream order touches it.
	sc    *streamCtx
	sinks []*flowSinkState
	// hooks are the pass's per-chunk callbacks (nil when unhooked); absorb
	// invokes them on the goroutine that owns stream order.
	hooks *StreamHooks
	// trainFrame is the name of the train op's feature-frame input,
	// resolved once so hooks with WantFeatures can find it per chunk.
	trainFrame string
	prof       []OpStats

	// accum holds the per-chunk frames deferred ops read; fenv is the
	// flush pass's environment, which absorb seeds with the latest of
	// every other streamed value they read. results are the rows the pass
	// returns: every chunk's on an unhooked pass, only the flush pass's
	// on a hooked one (the AfterChunk callback was handed the rest).
	accum   map[string][]*Frame
	fenv    map[string]Value
	results []*EvalResult
	hwm     uint64

	// stats is what plans with flow sinks retain of the packet stream for
	// the flush-time feature pass, as value copies that outlive every
	// chunk: one pktStat per packet, label included, so flow features can
	// read member-packet fields without a decoded packet set. Nil without
	// flow sinks; fed in stream order by feedSinks.
	stats   *pktStats
	nChunks int
}

// newStreamExec validates the pipeline and sets up the plan, flow sinks,
// profile and accumulators of one RunStream pass.
func newStreamExec(e *Engine, src dataset.Source, mode Mode, cfg StreamConfig) (*streamExec, error) {
	pl, err := e.StreamPlan(mode, cfg.Online)
	if err != nil {
		return nil, err
	}
	r := &streamExec{
		e:     e,
		mode:  mode,
		pl:    pl,
		meta:  src.Meta(),
		sc:    &streamCtx{carry: map[string]any{}, online: cfg.Online},
		hooks: cfg.Hooks,
		accum: map[string][]*Frame{},
		fenv:  map[string]Value{},
	}
	for i, op := range e.P.Ops {
		if !r.pl.FlowSink[i] {
			continue
		}
		opts, gran, err := flowParams(params(op.Params))
		if err != nil {
			return nil, fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
		}
		s := &flowSinkState{
			op: i, gran: gran,
			open: e.Metrics.Gauge("lumen_flow_open",
				"Flows a streaming run's flow_assemble sink holds open, as of its most recent chunk.", "output", op.Output),
			evicted: e.Metrics.Counter("lumen_flow_evicted_total",
				"Flows a streaming run's flow_assemble sink closed mid-stream, idle past the timeout.", "output", op.Output),
		}
		if gran == dataset.UniflowG {
			s.uni = flow.NewUniflowAssembler(opts)
		} else {
			s.conn = flow.NewConnAssembler(opts)
		}
		r.sinks = append(r.sinks, s)
	}
	r.prof = make([]OpStats, len(e.P.Ops))
	for i, op := range e.P.Ops {
		r.prof[i] = OpStats{Func: op.Func, Output: op.Output}
		if op.Func == "train" && len(op.Input) == 2 {
			r.trainFrame = op.Input[1]
		}
	}
	if len(r.sinks) > 0 {
		r.stats = &pktStats{}
	}
	return r, nil
}

// chunkJob is the unit of work flowing through a stream run: one chunk,
// its per-chunk dataset view and value environment, and everything its
// ops produced.
type chunkJob struct {
	nc  dataset.NumberedChunk
	cds *dataset.Labeled
	env map[string]Value
	// stats is indexed by op; only executed ops write their entry.
	stats   []OpStats
	results []*EvalResult
	// drift collects the chunk's drift_detect events (Seq is stamped at
	// absorb time, once the chunk's order in the stream is settled).
	drift []DriftEvent
	err   error
	// op is the index of the op runOps is running, which names the op
	// when it panics in prepare.
	op int
	// wsc is the job-local stream context the Worker ops run over. They
	// never depend on cross-chunk fold state, but some (field_extract
	// without iat) still save it; writing into a discardable job-local
	// carry keeps them race-free on the ops goroutine.
	wsc streamCtx
}

// newJob builds the job for one chunk. Nothing is reused across chunks:
// a job is a handful of small objects, and op outputs of packet kind may
// retain cds beyond the job's lifetime.
func (r *streamExec) newJob(nc dataset.NumberedChunk) *chunkJob {
	j := &chunkJob{
		nc: nc,
		cds: &dataset.Labeled{
			Name:        r.meta.Name,
			Granularity: r.meta.Granularity,
			Link:        r.meta.Link,
			Devices:     r.meta.Devices,
			Labels:      nc.Labels,
			Attacks:     nc.Attacks,
		},
		env:   make(map[string]Value, len(r.e.P.Ops)+1),
		stats: make([]OpStats, len(r.e.P.Ops)),
	}
	j.env[InputName] = Packets{DS: j.cds, Views: nc.Views}
	j.wsc.carry = map[string]any{}
	j.wsc.base = nc.Base
	j.wsc.online = r.sc.online
	return j
}

// feedSinks retains what a plan with flow sinks keeps of one chunk — one
// stat per packet (see stats) — and pushes the packets' summaries through
// every incremental flow assembler.
func (r *streamExec) feedSinks(job *chunkJob) {
	if len(r.sinks) == 0 {
		return
	}
	nc := &job.nc
	for i := range nc.Views {
		sum := nc.Views[i].Summary()
		st := statOf(&sum)
		if i < len(nc.Labels) && nc.Labels[i] != 0 {
			name := ""
			if i < len(nc.Attacks) {
				name = nc.Attacks[i]
			}
			st.attack = r.stats.attackID(name)
		}
		r.stats.add(st)
		for _, s := range r.sinks {
			s.add(nc.Base+i, &sum)
		}
	}
	for _, s := range r.sinks {
		s.report()
	}
}

// prepare is a chunk's ops stage, on the caller's goroutine at depth 0
// and on the ops goroutine staged: it builds the job and runs the plan's
// Worker ops over the job-local carry. A panic in one of those ops
// becomes the job's error, worded like the op's own errors, so it fails
// the pass the same way at every depth and never escapes a goroutine
// nobody could recover it on.
func (r *streamExec) prepare(nc dataset.NumberedChunk, stage *obs.Span) (job *chunkJob) {
	job = r.newJob(nc)
	var cs *obs.Span
	if stage != nil && slices.Contains(r.pl.Worker, true) {
		cs = chunkSpan(stage, &nc)
	}
	defer cs.End()
	defer func() {
		if v := recover(); v != nil {
			op := r.e.P.Ops[job.op]
			job.err = fmt.Errorf("core: op %d (%s -> %s): panic: %v", job.op, op.Func, op.Output, v)
		}
	}()
	r.runOps(job, r.pl.Worker, &job.wsc, cs)
	return job
}

// sinkChunk is the ordered sink's per-chunk body, run in stream order on
// the caller's goroutine at every depth: flow sinks, the Ordered ops over
// the shared cross-chunk carry, absorption into the run, then release of
// the chunk to its source, which also happens when the sink panics. It
// returns the job's error, on which the stream must abort.
func (r *streamExec) sinkChunk(job *chunkJob, stage *obs.Span, release func(dataset.NumberedChunk)) error {
	defer release(job.nc)
	if job.err == nil {
		var cs *obs.Span
		if stage != nil && (len(r.sinks) > 0 || slices.Contains(r.pl.Ordered, true)) {
			cs = chunkSpan(stage, &job.nc)
		}
		r.feedSinks(job)
		r.runOps(job, r.pl.Ordered, r.sc, cs)
		cs.End()
	}
	return r.absorb(job)
}

// chunkSpan opens the span of one chunk's work under a stage span (nil
// when tracing is off).
func chunkSpan(stage *obs.Span, nc *dataset.NumberedChunk) *obs.Span {
	if stage == nil {
		return nil
	}
	cs := stage.Child("chunk")
	cs.Set("base", nc.Base)
	cs.Set("rows", nc.Len())
	return cs
}

// runOps executes the picked ops over the job's environment, recording
// per-op stats and any evaluation results on the job. A failing op stores
// its wrapped error in job.err and stops the job. sc supplies the chunk
// base and cross-chunk carry: the shared ordered context in the sink, the
// job's own in prepare.
func (r *streamExec) runOps(job *chunkJob, pick []bool, sc *streamCtx, chunkSpan *obs.Span) {
	if job.err != nil {
		return
	}
	sc.base = job.nc.Base
	for i, op := range r.e.P.Ops {
		if !pick[i] {
			continue
		}
		job.op = i
		ctx := opCtx{mode: r.mode, stream: sc, drift: &job.drift}
		out, st, res, err := r.e.invoke(i, r.pl.defs[i], job.env, ctx, chunkSpan, nil)
		if err != nil {
			job.err = err
			return
		}
		job.stats[i] = st
		job.env[op.Output] = out
		if res != nil {
			job.results = append(job.results, res)
		}
	}
}

// absorb folds one finished job into the run, in stream order: profile
// stats, accumulated frames for deferred ops, and the chunk's evaluation
// results, which go to the AfterChunk callback when there is one and are
// kept for the returned result otherwise. It returns the job's error.
func (r *streamExec) absorb(job *chunkJob) error {
	if job.err != nil {
		return job.err
	}
	for i := range job.stats {
		r.prof[i].Wall += job.stats[i].Wall
		r.prof[i].Allocs += job.stats[i].Allocs
		r.prof[i].OutRows += job.stats[i].OutRows
	}
	if !r.hooks.active() {
		r.results = append(r.results, job.results...)
	}
	for i := range job.drift {
		job.drift[i].Seq = job.nc.Seq
	}
	r.e.LastStream.DriftEvents += len(job.drift)
	for name := range r.pl.Accum {
		switch v := job.env[name].(type) {
		case *Frame:
			r.accum[name] = append(r.accum[name], v)
		case nil:
		default:
			r.fenv[name] = v
		}
	}
	r.nChunks++
	if live := heapLiveBytes(); live > r.hwm {
		r.hwm = live
	}
	if r.e.Metrics != nil {
		r.e.Metrics.Counter("lumen_chunks_total",
			"Chunks pulled from packet sources by streaming runs.").Inc()
	}
	r.countDecode(job.nc.Views)
	// The hook runs last, once the chunk is fully folded into the run, so
	// callbacks observe a consistent pass state. Its error aborts the
	// stream exactly like an op failure in this chunk would have.
	return r.afterChunk(job)
}

// countDecode feeds the decode counters for one absorbed chunk: every
// packet, and the subset whose header decode never ran (the plan needed
// nothing beyond record metadata).
func (r *streamExec) countDecode(views []netpkt.PacketView) {
	if r.e.Metrics == nil || len(views) == 0 {
		return
	}
	skips := 0
	for i := range views {
		if !views[i].HeadersDecoded() {
			skips++
		}
	}
	r.e.Metrics.Counter("lumen_decode_packets_total",
		"Packets delivered to streaming runs (every source emits lazy views).").Add(uint64(len(views)))
	if skips > 0 {
		r.e.Metrics.Counter("lumen_decode_lazy_skips_total",
			"Packets whose L2-L4 header decode was never needed and so never ran.").Add(uint64(skips))
	}
}

// finish runs the deferred (barrier) suffix with batch semantics over
// the accumulated state and assembles the result the pass returns: every
// row on an unhooked pass, the flush pass's rows on a hooked one.
func (r *streamExec) finish() (*EvalResult, error) {
	e := r.e
	if e.Metrics != nil {
		e.Metrics.Gauge("lumen_stream_hwm_bytes",
			"Live-heap high-water mark observed at chunk boundaries of the most recent streaming run.").Set(float64(r.hwm))
	}

	// Flush: run deferred ops in op order with batch semantics, each
	// accumulation concatenated when its first reader runs.
	fenv := r.fenv
	for i, op := range e.P.Ops {
		if r.pl.Streamed[i] {
			continue
		}
		start := time.Now()
		if k := slices.IndexFunc(r.sinks, func(s *flowSinkState) bool { return s.op == i }); k >= 0 {
			fl := r.finishFlows(r.sinks[k])
			fenv[op.Output] = fl
			r.prof[i].Wall += time.Since(start)
			if i == r.pl.ConnSink && r.hooks != nil && r.hooks.ConnsClosed != nil {
				if err := r.hooks.ConnsClosed(fl.Conns); err != nil {
					return nil, fmt.Errorf("core: conns-closed hook: %w", err)
				}
			}
			continue
		}
		for _, name := range op.Input {
			if parts, ok := r.accum[name]; ok && fenv[name] == nil {
				fr, err := concatFrames(parts)
				if err != nil {
					return nil, fmt.Errorf("core: op %d (%s): %w", i, op.Func, err)
				}
				fenv[name] = fr
			}
		}
		out, st, res, err := e.invoke(i, r.pl.defs[i], fenv, opCtx{mode: r.mode}, e.Span, nil)
		if err != nil {
			return nil, err
		}
		fenv[op.Output] = out
		// The op's profile includes concatenating its inputs.
		r.prof[i].Wall, r.prof[i].Allocs, r.prof[i].OutRows = time.Since(start), st.Allocs, st.OutRows
		if res != nil {
			r.results = append(r.results, res)
		}
	}
	e.Profile = append(e.Profile[:0], r.prof...)
	e.LastStream.Chunks = r.nChunks
	e.LastStream.HWMBytes = r.hwm
	if r.mode == ModeTrain {
		if r.sc.online {
			// Reservoir-wrapped batch models have only been accumulating
			// rows; make sure every trained state ends the pass fitted.
			for _, v := range e.state {
				tr, ok := v.(*Trained)
				if !ok {
					continue
				}
				if ff, ok := tr.Clf.(mlkit.FinishFitter); ok {
					if err := ff.FinishFit(); err != nil {
						return nil, fmt.Errorf("core: finish fit: %w", err)
					}
				}
			}
		}
		e.trained = true
	}
	return mergeResults(r.results), nil
}

// finishFlows assembles the final Flows value of a flow-sink op at flush:
// the flows evicted mid-stream plus the assembler's remainder, in the
// canonical (first-packet time, tuple) order batch assembly produces.
func (r *streamExec) finishFlows(s *flowSinkState) *Flows {
	out := &Flows{Granularity: s.gran, stats: r.stats}
	if s.uni != nil {
		out.Unis = append(s.unis, s.uni.Flush()...)
		flow.SortUniflows(out.Unis)
	} else {
		out.Conns = append(s.cons, s.conn.Flush()...)
		flow.SortConnections(out.Conns)
	}
	return out
}
