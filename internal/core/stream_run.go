package core

import (
	"fmt"
	"slices"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// streamExec is the state of one RunStream execution. Every piece of
// work it runs is a chunkJob: a chunk, a block of closed flows, or the
// drain pass. runOps runs one stage of the plan over a job and absorb
// folds the finished job into the run, the same way for all three. A
// staged pass prepares a chunk on the ops goroutine while the sink
// absorbs an earlier one; everything on streamExec itself is only ever
// touched by the one goroutine that owns stream order (the caller's: it
// runs the sink at every depth).
type streamExec struct {
	e    *Engine
	mode Mode
	pl   *StreamPlan
	// stage[i] is where this pass runs op i: the plan's stage, except
	// that a pass the shared cache serves runs its StageClose ops at
	// drain, over the whole trace.
	stage []Stage
	meta  dataset.SourceMeta
	// sc carries cross-chunk fold state for the ordered ops; only the
	// goroutine that owns stream order touches it.
	sc    *streamCtx
	sinks []*flowSinkState
	// hooks are the pass's per-chunk callbacks, which absorb invokes on
	// the goroutine that owns stream order: the caller's, with collect as
	// AfterChunk when the caller set none.
	hooks StreamHooks
	prof  []OpStats

	// accum holds by slot the per-chunk frames deferred ops read, fenv the
	// latest of every other streamed value they read: fenv seeds each
	// block's environment and is the drain pass's. out is the result
	// collect builds, the rows a pass the caller did not hook returns.
	accum   [][]*Frame
	fenv    []Value
	out     *EvalResult
	hwm     uint64
	live    gauge // on heapLiveName, sampled into hwm once a job
	nChunks int

	// arenas is the free list of chunk scratch on a recycling pass, nil
	// otherwise. A pass recycles when nothing it produces outlives the
	// chunk's hook: it is not Online (a partial fit may keep rows), its
	// plan accumulates no streamed value for the flush, and the shared
	// cache does not serve it (cached values outlive the pass).
	arenas *arenaPool

	// keys are the lineage keys by slot (see lineageKeys) of the values
	// the shared cache serves this pass, nil when it bypasses the cache;
	// root is the dataset they derive from. A pass with keys reads its
	// dataset as one chunk, so a keyed value is its whole-trace value.
	keys []string
	root *dataset.Labeled
	// free[i] holds the slots op i's environment clears once op i has run
	// (see deadAfter).
	free [][]int

	// closeSink is the sink whose released flows the StageClose ops
	// score a block at a time while the stream runs (see scoreClosed);
	// nil when the plan has none or the shared cache serves the pass,
	// which runs them at drain. Every block is the one job block, run
	// over bsc with Online off, whose arena each block hands on to the
	// next. connsLogged records that the pass has called ConnsClosed.
	closeSink   *flowSinkState
	bsc         streamCtx
	block       *chunkJob
	connsLogged bool
	// logSink is the log-only connection sink of a pass that sets
	// ConnsClosed while its plan has no connection sink, nil otherwise
	// (see logConns). It is the last of sinks.
	logSink *flowSinkState
}

// newStreamExec validates the pipeline and sets up the plan, flow sinks,
// profile, accumulators and hooks of one RunStream pass. A pass over a
// root dataset that arrives as one chunk, unhooked by the caller and not
// Online, is what the shared cache can serve: its values are keyed by
// lineage from the dataset's identity.
func newStreamExec(e *Engine, src dataset.Source, mode Mode, cfg StreamConfig, root *dataset.Labeled) (*streamExec, error) {
	pl, err := e.StreamPlan(mode)
	if err != nil {
		return nil, err
	}
	r := &streamExec{
		e:     e,
		mode:  mode,
		pl:    pl,
		stage: slices.Clone(pl.Stage),
		meta:  src.Meta(),
		sc:    &streamCtx{carry: make([]any, len(e.P.Ops)), online: cfg.Online},
		accum: make([][]*Frame, len(e.P.Ops)),
		fenv:  make([]Value, len(e.P.Ops)+1),
		live:  gauge{{Name: heapLiveName}},
	}
	if root != nil && e.cache != nil && cfg.ChunkRows == 0 && cfg.ChunkBytes == 0 && cfg.Hooks == nil && !cfg.Online {
		r.keys, r.root = lineageKeys(e.P, pl, root), root
		for i, s := range r.stage {
			if s == StageClose {
				r.stage[i] = StageDrain
			}
		}
	}
	for i, op := range e.P.Ops {
		if r.stage[i] != StageSink {
			continue
		}
		s, err := newFlowSink(i, params(op.Params), pl.StatCap[i], e.Metrics, op.Output)
		if err != nil {
			return nil, fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
		}
		r.sinks = append(r.sinks, s)
		if i == pl.CloseSink && r.keys == nil {
			r.closeSink = s
			r.bsc.carry = make([]any, len(e.P.Ops))
			r.block = r.flushJob(make([]Value, len(e.P.Ops)+1), &arenaPool{})
		}
	}
	r.prof = make([]OpStats, len(e.P.Ops))
	for i, op := range e.P.Ops {
		r.prof[i] = OpStats{Func: op.Func, Output: op.Output}
	}
	if !cfg.Online && !slices.Contains(pl.Accum, true) && r.keys == nil {
		r.arenas = &arenaPool{}
	}
	if cfg.Hooks != nil {
		r.hooks = *cfg.Hooks
	}
	if r.hooks.AfterChunk == nil {
		r.hooks.AfterChunk = r.collect
	}
	if r.hooks.ConnsClosed != nil && pl.ConnSink < 0 {
		// Connections leave a pass one way: a plan that assembles none
		// gets a sink of the pass's own, under the default options, that
		// no op reads and no series reports.
		r.logSink = &flowSinkState{op: -1, gran: dataset.ConnectionG, asm: flow.NewConnAssembler(flow.Options{})}
		r.sinks = append(r.sinks, r.logSink)
	}
	keep := -1
	if r.hooks.WantFeatures {
		keep = pl.in[e.trainOp][1]
	}
	r.free = deadAfter(pl.in, r.stage, keep)
	return r, nil
}

// deadAfter is the pass's dead-value elimination, the paper's "removing
// variables that are not used in future operations": free[i] lists the
// slots nothing reads once op i has run in its environment. A chunk runs
// its worker ops and then its ordered ops, each in op order, and a block
// or the drain pass its deferred ops after every chunk, so a value dies
// after its last reader in that order. A streamed value a deferred op
// reads (StreamPlan.Accum) thus dies only in a deferred environment,
// after absorb has copied it there. The chunk's packets and keep (the
// slot of the frame a hook asks for, -1 for none) stay for the whole job.
func deadAfter(in [][]int, stage []Stage, keep int) [][]int {
	// Sinks, close and drain ops all read only what the chunk has done.
	rank := func(i int) Stage { return min(stage[i], StageSink) }
	// last[s] is slot s's last reader (-1: none); packets are never freed.
	last := make([]int, len(in))
	for s := range last {
		last[s] = -1
	}
	for i := range in {
		for _, s := range in[i] {
			if s < len(last) && (last[s] < 0 || rank(i) >= rank(last[s])) {
				last[s] = i
			}
		}
	}
	free := make([][]int, len(in))
	for s, i := range last {
		if i >= 0 && s != keep {
			free[i] = append(free[i], s)
		}
	}
	return free
}

// chunkJob is the unit of work of a stream run: one chunk, with its
// per-chunk dataset view, one block of closed flows, or the drain pass.
// It holds the job's value environment and everything its ops produced.
// A block's or the drain pass's job has no chunk: its Seq is -1 (see
// flushJob).
type chunkJob struct {
	nc  dataset.NumberedChunk
	cds *dataset.Labeled
	// env holds the job's values by slot (see Engine.check).
	env []Value
	// args and ctx are where runOps hands one op its inputs and context.
	args [4]Value
	ctx  opCtx
	// stats is indexed by op; only executed ops write their entry (see
	// ran).
	stats   []OpStats
	results []*EvalResult
	// drift collects the job's drift_detect events (Seq is stamped at
	// absorb time, once the chunk's order in the stream is settled).
	drift []DriftEvent
	err   error
	// op is the index of the op runOps is running, which names the op
	// when it panics in prepare.
	op int
	// wsc is the job-local stream context the worker ops run over: the
	// chunk's base, and no carry. An op that folds state across chunks
	// is ordered (its ordered trait), so a worker op that saves carry
	// fails its job.
	wsc streamCtx
	// scratch is where the job's ops get their buffers (see arenaPool).
	scratch jobScratch
}

// flush reports whether the job is a block's or the drain pass's.
func (j *chunkJob) flush() bool { return j.nc.Seq < 0 }

// ran reports whether op i ran in the job.
func (j *chunkJob) ran(i int) bool { return j.stats[i].Func != "" }

// newJob builds the job for one chunk. The job itself is not reused: it
// is a handful of small objects, and op outputs of packet kind may
// retain cds beyond the job's lifetime. On a recycling pass its ops'
// buffers are, but no arena is taken here: only at the first request.
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
		env:   make([]Value, len(r.e.P.Ops)+1),
		stats: make([]OpStats, len(r.e.P.Ops)),
	}
	j.env[packetSlot(r.e.P.Ops)] = Packets{DS: j.cds, Views: nc.Views}
	j.wsc.base = nc.Base
	j.scratch.pool = r.arenas
	return j
}

// flushJob builds the job of a block of closed flows or of the drain
// pass over env, its ops drawing buffers from pool (nil: make).
func (r *streamExec) flushJob(env []Value, pool *arenaPool) *chunkJob {
	j := &chunkJob{nc: dataset.NumberedChunk{Seq: -1}, env: env, stats: make([]OpStats, len(r.e.P.Ops))}
	j.scratch.pool = pool
	return j
}

// feedSinks pushes one chunk's packets through every incremental flow
// assembler, whose flows keep their members' stats, and takes the flows
// each can release. On a pass the shared cache serves, the chunk is the
// whole trace, and the sinks are their ops, run over it through the
// cache instead. A failure is the job's error.
func (r *streamExec) feedSinks(job *chunkJob, cs *obs.Span) {
	if len(r.sinks) == 0 {
		return
	}
	if r.keys != nil {
		r.runOps(job, StageSink, r.sc, cs)
		for _, s := range r.sinks {
			s.flows, _ = job.env[s.op].(*Flows)
		}
		return
	}
	nc := &job.nc
	feedFlows(r.sinks, nc.Views, nc.Labels, nc.Attacks)
	for _, s := range r.sinks {
		s.report()
	}
}

// prepare is a chunk's ops stage, on the caller's goroutine at depth 0
// and on the ops goroutine staged: it builds the job and runs the plan's
// worker ops over the job's stream context. A panic in one of those ops
// becomes the job's error, worded like the op's own errors, so it fails
// the pass the same way at every depth and never escapes a goroutine
// nobody could recover it on.
func (r *streamExec) prepare(nc dataset.NumberedChunk, stage *obs.Span) (job *chunkJob) {
	job = r.newJob(nc)
	var cs *obs.Span
	if stage != nil && slices.Contains(r.stage, StageWorker) {
		cs = chunkSpan(stage, &nc)
	}
	defer cs.End()
	defer func() {
		if v := recover(); v != nil {
			op := r.e.P.Ops[job.op]
			job.err = fmt.Errorf("core: op %d (%s -> %s): panic: %v", job.op, op.Func, op.Output, v)
		}
	}()
	r.runOps(job, StageWorker, &job.wsc, cs)
	return job
}

// sinkChunk is the ordered sink's per-chunk body, run in stream order on
// the caller's goroutine at every depth: flow sinks, the ordered ops over
// the shared cross-chunk carry, absorption into the run, the blocks of
// closed flows the chunk completed, then release of the chunk to its
// source, which also happens when the sink panics. The blocks come after
// absorption because they read the streamed values it keeps, such as
// the model spec. It returns the job's error, on which the stream must
// abort.
func (r *streamExec) sinkChunk(job *chunkJob, stage *obs.Span, release func(dataset.NumberedChunk)) error {
	defer release(job.nc)
	if job.err == nil {
		var cs *obs.Span
		if stage != nil && (len(r.sinks) > 0 || slices.Contains(r.stage, StageOrdered)) {
			cs = chunkSpan(stage, &job.nc)
		}
		r.feedSinks(job, cs)
		r.sc.base = job.nc.Base
		r.runOps(job, StageOrdered, r.sc, cs)
		cs.End()
	}
	err := r.absorb(job)
	if err == nil && r.closeSink != nil {
		err = r.scoreClosed(false)
	}
	if err == nil && r.logSink != nil {
		err = r.logConns(false)
	}
	return err
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

// runOps executes the ops the pass runs at stage over the job's
// environment, in op order: the one place a pass invokes an op. It
// records per-op stats, evaluation results and drift events on the job
// and drops each value after its last reader. A failing op stores its
// wrapped error in job.err and stops the job. sc supplies the base and
// cross-chunk carry: the job's own, which has none, for worker ops, the
// shared ordered context for ordered and drain ops, the blocks' for
// close ops; the train op's result it carries to drift_detect ends with
// the stage.
// parent is the span the ops' spans hang off.
func (r *streamExec) runOps(job *chunkJob, stage Stage, sc *streamCtx, parent *obs.Span) {
	if job.err != nil {
		return
	}
	for i := range r.stage {
		if r.stage[i] != stage {
			continue
		}
		job.op = i
		in := job.args[:0]
		for _, s := range r.pl.in[i] {
			in = append(in, job.env[s])
		}
		job.ctx = opCtx{mode: r.mode, stream: sc, drift: &job.drift, scratch: &job.scratch}
		out, st, res, err := r.e.invoke(i, r.pl.defs[i], in, &job.ctx, parent, r.keys, r.root)
		clear(job.args[:])
		if err != nil {
			job.err = err
			return
		}
		job.stats[i] = st
		job.env[i] = out
		if res != nil {
			job.results = append(job.results, res)
		}
		for _, s := range r.free[i] {
			job.env[s] = nil
		}
	}
	sc.lastResult = nil
}

// absorb folds one finished job into the run, in stream order, the same
// way for a chunk, a block and the drain pass: it adds the job's stats to
// the profile, stamps its drift events with its Seq and counts them,
// raises the pass's live-heap high-water mark, hands the job to the
// AfterChunk hook, and then its scratch back. A chunk also leaves the
// streamed values deferred ops read. It returns the job's error or the
// hook's.
func (r *streamExec) absorb(job *chunkJob) error {
	defer job.scratch.release()
	if job.err != nil {
		return job.err
	}
	for i := range job.stats {
		r.prof[i].Wall += job.stats[i].Wall
		r.prof[i].Allocs += job.stats[i].Allocs
		r.prof[i].OutRows += job.stats[i].OutRows
		r.prof[i].Cached = r.prof[i].Cached || job.stats[i].Cached
	}
	for i := range job.drift {
		job.drift[i].Seq = job.nc.Seq
	}
	r.e.LastStream.DriftEvents += len(job.drift)
	if !job.flush() {
		// What a chunk leaves the deferred ops: its frame of every
		// accumulated value, the latest of every other.
		for s, acc := range r.pl.Accum {
			if !acc {
				continue
			}
			switch v := job.env[s].(type) {
			case *Frame:
				r.accum[s] = append(r.accum[s], v)
			case nil:
			default:
				r.fenv[s] = v
			}
		}
		r.nChunks++
		if r.e.Metrics != nil {
			r.e.Metrics.Counter("lumen_chunks_total",
				"Chunks pulled from packet sources by streaming runs.").Inc()
		}
		r.countDecode(job.nc.Views)
	}
	if live := r.live.read(); live > r.hwm {
		r.hwm = live
	}
	// The hook runs last, once the job is fully folded into the run, so
	// callbacks observe a consistent pass state. Its error aborts the
	// stream exactly like an op failure in this job would have.
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

// finish runs the drain pass, a job over the accumulated state of the
// whole trace: every accumulated frame concatenated, the streamed values
// kept, and each sink's flows, the close sink scoring its last blocks
// first. It returns what collect gathered: every row on a pass the
// caller did not hook, nil on one it did, whose callback was handed them.
func (r *streamExec) finish() (*EvalResult, error) {
	e := r.e
	env := r.fenv
	for s, parts := range r.accum {
		if parts == nil {
			continue
		}
		fr, err := concatFrames(parts)
		if err != nil {
			return nil, fmt.Errorf("core: accumulated %q: %w", e.P.Ops[s].Output, err)
		}
		env[s] = fr
		r.accum[s] = nil
	}
	job := r.flushJob(env, nil)
	for _, s := range r.sinks {
		if s == r.logSink {
			if err := r.logConns(true); err != nil {
				return nil, err
			}
			continue
		}
		op := e.P.Ops[s.op]
		fl := s.flows
		if fl == nil {
			// Closing the sink is its op's run on this pass: it gets the
			// op's span, metrics and profile.
			var sp *obs.Span
			if e.Span != nil {
				sp = e.Span.Child("op:" + op.Func)
				sp.Set("output", op.Output)
			}
			start := time.Now()
			fl = s.finish()
			job.stats[s.op] = OpStats{Func: op.Func, Output: op.Output, Wall: time.Since(start)}
			e.finishOp(sp, &job.stats[s.op], nil)
		}
		if s == r.closeSink {
			if err := r.scoreClosed(true); err != nil {
				return nil, err
			}
			continue
		}
		env[s.op] = fl
		if err := r.connsClosed(s, fl.Flows); err != nil {
			return nil, err
		}
	}
	// Rows are numbered from 0, and a train op deferred on an Online pass
	// only scores, as it does over a block.
	r.sc.base, r.sc.online = 0, false
	r.runOps(job, StageDrain, r.sc, e.Span)
	if err := r.absorb(job); err != nil {
		return nil, err
	}
	if e.Metrics != nil {
		e.Metrics.Gauge("lumen_stream_hwm_bytes",
			"Live-heap high-water mark observed as each chunk, block of closed flows and the drain pass of the most recent streaming run is absorbed.").Set(float64(r.hwm))
	}
	e.Profile = append(e.Profile[:0], r.prof...)
	e.LastStream.Chunks = r.nChunks
	e.LastStream.HWMBytes = r.hwm
	if r.mode == ModeTrain {
		e.trained = true
	}
	return r.out, nil
}

// collect is the AfterChunk hook of a pass whose caller set none: it
// copies every update's rows, in the order they come, into the result
// the pass returns. A column no update has rows for stays nil, as it is
// in each result the train op makes.
func (r *streamExec) collect(up ChunkUpdate) error {
	for _, res := range up.Results {
		if r.out == nil {
			r.out = &EvalResult{Unit: res.Unit}
		}
		out := r.out
		out.Pred = append(out.Pred, res.Pred...)
		out.Truth = append(out.Truth, res.Truth...)
		out.Attacks = append(out.Attacks, res.Attacks...)
		out.Scores = append(out.Scores, res.Scores...)
		out.UnitIdx = append(out.UnitIdx, res.UnitIdx...)
	}
	return nil
}

// connsClosed hands conns, connections sink s has closed, to the
// ConnsClosed hook when s is the plan's connection sink or the pass's
// log-only one, whose op -1 is the ConnSink of a plan that has none.
func (r *streamExec) connsClosed(s *flowSinkState, conns []*flow.Flow) error {
	if s.op != r.pl.ConnSink || r.hooks.ConnsClosed == nil {
		return nil
	}
	r.connsLogged = true
	if err := r.hooks.ConnsClosed(conns); err != nil {
		return fmt.Errorf("core: conns-closed hook: %w", err)
	}
	return nil
}

// logConns hands the connections the log-only sink has released to
// ConnsClosed and then recycles them: after each chunk those the chunk
// released, if any, and at drain (last) every one still open, or none,
// once, when the pass closed no connection.
func (r *streamExec) logConns(last bool) error {
	s := r.logSink
	if last {
		s.released = s.asm.ReleaseAll(s.released)
	}
	if len(s.released) == 0 && (!last || r.connsLogged) {
		return nil
	}
	err := r.connsClosed(s, s.released)
	s.asm.Recycle(s.released)
	clear(s.released)
	s.released = s.released[:0]
	return err
}

// flushBlock is how many closed flows a block of the StageClose ops
// featurizes and scores at a time (see scoreClosed): the row bound of a
// typical chunk, so a block's arena is about one chunk's.
const flushBlock = 512

// scoreClosed hands the close sink's released flows to the plan's
// StageClose ops a block of flushBlock at a time, in canonical order: every full
// block, and at drain (last, once the sink has released every flow) the
// partial one too, or a ConnsClosed call with none when the pass closed
// no connection. A flow's unit index is the number of flows handed on
// before it, so rows and unit indices are the whole-trace flush's at
// every chunk size.
func (r *streamExec) scoreClosed(last bool) error {
	s := r.closeSink
	for n := s.pending(); n >= flushBlock || last && n > 0; n = s.pending() {
		base := s.done
		if err := r.runBlock(s.handOn(min(n, flushBlock)), base); err != nil {
			return err
		}
	}
	if last && !r.connsLogged {
		return r.connsClosed(s, nil)
	}
	return nil
}

// runBlock hands one block's connections to ConnsClosed, then runs the
// StageClose ops over the block, whose first flow has unit index base:
// the block job's environment is the pass's streamed values plus the
// block's flows. Once absorb has handed the block to the hook, nothing
// reads its flows: the sink's next flows reuse them.
func (r *streamExec) runBlock(fl *Flows, base int) error {
	if err := r.connsClosed(r.closeSink, fl.Flows); err != nil {
		return err
	}
	job := r.block
	copy(job.env, r.fenv)
	job.env[r.closeSink.op] = fl
	r.bsc.base = base
	r.runOps(job, StageClose, &r.bsc, r.e.Span)
	err := r.absorb(job)
	// The block's values and rows die with it, not with the next block.
	clear(job.env)
	clear(job.results)
	job.results, job.drift = job.results[:0], job.drift[:0]
	clear(job.stats)
	r.closeSink.asm.Recycle(fl.Flows)
	clear(fl.Flows)
	return err
}
