package core

import (
	"fmt"
	"maps"
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
	// trainFrame is the name of the train op's feature-frame input, so
	// hooks with WantFeatures can find it in every job.
	trainFrame string
	prof       []OpStats

	// accum holds the per-chunk frames deferred ops read; fenv holds the
	// latest of every other streamed value they read. Both seed the
	// environments of the blocks and of the drain pass. out is the result
	// collect builds, the rows a pass the caller did not hook returns.
	accum   map[string][]*Frame
	fenv    map[string]Value
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

	// keys are the lineage keys (see lineageKeys) of the values the shared
	// cache serves this pass, nil when it bypasses the cache; root is the
	// dataset they derive from. A pass with keys reads its dataset as one
	// chunk, so each keyed op's output there is its whole-trace value.
	keys map[string]string
	root *dataset.Labeled
	// free[i] names the values op i's environment drops once op i has run
	// (see deadAfter).
	free [][]string

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
		sc:    &streamCtx{carry: map[string]any{}, online: cfg.Online},
		accum: map[string][]*Frame{},
		fenv:  map[string]Value{},
		live:  gauge{{Name: heapLiveName}},
	}
	if root != nil && e.cache != nil && cfg.ChunkRows == 0 && cfg.ChunkBytes == 0 && cfg.Hooks == nil && !cfg.Online {
		r.keys, r.root = lineageKeys(e.P, pl.defs, root), root
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
			r.bsc.carry = map[string]any{}
			r.block = r.flushJob(map[string]Value{}, &arenaPool{})
		}
	}
	r.prof = make([]OpStats, len(e.P.Ops))
	for i, op := range e.P.Ops {
		r.prof[i] = OpStats{Func: op.Func, Output: op.Output}
	}
	r.trainFrame = e.P.Ops[e.trainOp].Input[1]
	if !cfg.Online && len(pl.Accum) == 0 && r.keys == nil {
		r.arenas = &arenaPool{}
	}
	if cfg.Hooks != nil {
		r.hooks = *cfg.Hooks
	}
	if r.hooks.AfterChunk == nil {
		r.hooks.AfterChunk = r.collect
	}
	keep := ""
	if r.hooks.WantFeatures {
		keep = r.trainFrame
	}
	r.free = deadAfter(e.P, r.stage, keep)
	return r, nil
}

// deadAfter is the pass's dead-value elimination, the paper's "removing
// variables that are not used in future operations": free[i] lists the
// values nothing reads once op i has run in its environment. A chunk runs
// its worker ops and then its ordered ops, each in op order, and a block
// or the drain pass its deferred ops after every chunk, so a value dies
// after its last reader in that order. A streamed value a deferred op
// reads (StreamPlan.Accum) thus dies only in a deferred environment,
// after absorb has copied it there. The chunk's packets and keep (the
// frame a hook asks for) stay for the whole job.
func deadAfter(p *Pipeline, stage []Stage, keep string) [][]string {
	// Sinks, close and drain ops all read only what the chunk has done.
	rank := func(i int) Stage { return min(stage[i], StageSink) }
	last := map[string]int{}
	for i, op := range p.Ops {
		for _, in := range op.Input {
			if j, ok := last[in]; !ok || rank(i) >= rank(j) {
				last[in] = i
			}
		}
	}
	free := make([][]string, len(p.Ops))
	for in, i := range last {
		if in != InputName && in != keep {
			free[i] = append(free[i], in)
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
	env map[string]Value
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
	// wsc is the job-local stream context the worker ops run over. They
	// never depend on cross-chunk fold state, but some (field_extract
	// without iat) still save it; writing into a discardable job-local
	// carry keeps them race-free on the ops goroutine.
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
		env:   make(map[string]Value, len(r.e.P.Ops)+1),
		stats: make([]OpStats, len(r.e.P.Ops)),
	}
	j.env[InputName] = Packets{DS: j.cds, Views: nc.Views}
	j.wsc.carry = map[string]any{}
	j.wsc.base = nc.Base
	j.scratch.pool = r.arenas
	return j
}

// flushJob builds the job of a block of closed flows or of the drain
// pass over env, its ops drawing buffers from pool (nil: make).
func (r *streamExec) flushJob(env map[string]Value, pool *arenaPool) *chunkJob {
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
			s.flows, _ = job.env[r.e.P.Ops[s.op].Output].(*Flows)
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
// worker ops over the job-local carry. A panic in one of those ops
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
// cross-chunk carry: the job's own for worker ops, the shared ordered
// context for ordered and drain ops, the blocks' for close ops; the
// train op's result it carries to drift_detect ends with the stage.
// parent is the span the ops' spans hang off.
func (r *streamExec) runOps(job *chunkJob, stage Stage, sc *streamCtx, parent *obs.Span) {
	if job.err != nil {
		return
	}
	for i, op := range r.e.P.Ops {
		if r.stage[i] != stage {
			continue
		}
		job.op = i
		ctx := opCtx{mode: r.mode, stream: sc, drift: &job.drift, scratch: &job.scratch}
		out, st, res, err := r.e.invoke(i, r.pl.defs[i], job.env, ctx, parent, r.keys[op.Output], r.root)
		if err != nil {
			job.err = err
			return
		}
		job.stats[i] = st
		job.env[op.Output] = out
		if res != nil {
			job.results = append(job.results, res)
		}
		for _, name := range r.free[i] {
			delete(job.env, name)
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
	for name, parts := range r.accum {
		fr, err := concatFrames(parts)
		if err != nil {
			return nil, fmt.Errorf("core: accumulated %q: %w", name, err)
		}
		env[name] = fr
		delete(r.accum, name)
	}
	job := r.flushJob(env, nil)
	for _, s := range r.sinks {
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
		env[op.Output] = fl
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
// ConnsClosed hook when s is the plan's connection sink.
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
// block's flows.
func (r *streamExec) runBlock(fl *Flows, base int) error {
	if err := r.connsClosed(r.closeSink, fl.Flows); err != nil {
		return err
	}
	job := r.block
	maps.Copy(job.env, r.fenv)
	job.env[r.e.P.Ops[r.closeSink.op].Output] = fl
	r.bsc.base = base
	r.runOps(job, StageClose, &r.bsc, r.e.Span)
	err := r.absorb(job)
	// The block's values and rows die with it, not with the next block.
	clear(job.env)
	clear(job.results)
	job.results, job.drift = job.results[:0], job.drift[:0]
	clear(job.stats)
	return err
}
