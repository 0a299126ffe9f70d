package core

import (
	"fmt"
	"maps"
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
	// returns on an unhooked pass; on a hooked one they hold only flush
	// rows not yet handed to the AfterChunk callback (see handFlush).
	accum   map[string][]*Frame
	fenv    map[string]Value
	results []*EvalResult
	hwm     uint64
	nChunks int

	// arenas is the free list of chunk scratch on a recycling pass, nil
	// otherwise. A pass recycles when nothing it produces outlives the
	// chunk's hook: it is hooked, not Online (a partial fit may keep
	// rows), and its plan accumulates no streamed value for the flush.
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

	// closeSink is the sink whose released flows the plan's Close ops
	// score a block at a time while the stream runs (see scoreClosed);
	// nil when the plan has none or the shared cache serves the pass,
	// which runs them at drain. The blocks run over bsc, with Online off,
	// and draw frame columns and the scored matrix from one arena
	// (blocks) that each block hands on to the next. connsLogged records
	// that the pass has called ConnsClosed.
	closeSink   *flowSinkState
	bsc         streamCtx
	blocks      jobScratch
	connsLogged bool
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
		s, err := newFlowSink(i, params(op.Params), pl.StatCap[i], e.Metrics, op.Output)
		if err != nil {
			return nil, fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
		}
		r.sinks = append(r.sinks, s)
		if i == pl.CloseSink {
			r.closeSink = s
			r.bsc.carry = map[string]any{}
			r.blocks.pool = &arenaPool{}
		}
	}
	r.prof = make([]OpStats, len(e.P.Ops))
	for i, op := range e.P.Ops {
		r.prof[i] = OpStats{Func: op.Func, Output: op.Output}
		if op.Func == "train" && len(op.Input) == 2 {
			r.trainFrame = op.Input[1]
		}
	}
	if cfg.Hooks.active() && !cfg.Online && len(pl.Accum) == 0 {
		r.arenas = &arenaPool{}
	}
	keep := ""
	if cfg.Hooks != nil && cfg.Hooks.WantFeatures {
		keep = r.trainFrame
	}
	r.free = deadAfter(e.P, pl, keep)
	return r, nil
}

// deadAfter is the pass's dead-value elimination, the paper's "removing
// variables that are not used in future operations": free[i] lists the
// values nothing reads once op i has run in its environment. A chunk runs
// its Worker ops and then its Ordered ops, each in op order, and the flush
// pass its deferred ops after every chunk, so a value dies after its last
// reader in that order. A streamed value a deferred op reads (pl.Accum)
// thus dies only in the flush environment, after absorb has copied it
// there. The chunk's packets and keep (the frame a hook asks for) stay
// for the whole chunk.
func deadAfter(p *Pipeline, pl *StreamPlan, keep string) [][]string {
	// stage(i) is 0 for a Worker op, 1 for an Ordered one, 2 if deferred.
	stage := func(i int) int { return slices.Index([]bool{pl.Worker[i], pl.Ordered[i], true}, true) }
	last := map[string]int{}
	for i, op := range p.Ops {
		for _, in := range op.Input {
			if j, ok := last[in]; !ok || stage(i) >= stage(j) {
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
	// scratch is where the job's ops get their buffers (see arenaPool).
	scratch jobScratch
}

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
	j.wsc.online = r.sc.online
	j.scratch.pool = r.arenas
	return j
}

// feedSinks pushes one chunk's packets through every incremental flow
// assembler, whose flows keep their members' stats, and takes the flows
// each can release. On a pass the shared cache serves, the chunk is the
// whole trace, and each sink is its op run once over it through the
// cache instead. A failure is the job's error.
func (r *streamExec) feedSinks(job *chunkJob, cs *obs.Span) {
	if len(r.sinks) == 0 {
		return
	}
	if r.keys != nil {
		for _, s := range r.sinks {
			ctx := opCtx{mode: r.mode, stream: r.sc}
			out, st, _, err := r.e.invoke(s.op, r.pl.defs[s.op], job.env, ctx, cs, r.keys[r.e.P.Ops[s.op].Output], r.root)
			if err != nil {
				job.err = err
				return
			}
			s.flows, job.stats[s.op] = out.(*Flows), st
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
// the shared cross-chunk carry, absorption into the run, the blocks of
// closed flows the chunk completed, then release of the chunk to its
// source, which also happens when the sink panics. Once the job is
// absorbed and its hook has returned, nothing references the chunk's
// scratch, so its arena goes back to the free list. The blocks come
// after absorption because they read the streamed values it keeps, such
// as the model spec. It returns the job's error, on which the stream
// must abort.
func (r *streamExec) sinkChunk(job *chunkJob, stage *obs.Span, release func(dataset.NumberedChunk)) error {
	defer release(job.nc)
	if job.err == nil {
		var cs *obs.Span
		if stage != nil && (len(r.sinks) > 0 || slices.Contains(r.pl.Ordered, true)) {
			cs = chunkSpan(stage, &job.nc)
		}
		r.feedSinks(job, cs)
		r.runOps(job, r.pl.Ordered, r.sc, cs)
		cs.End()
	}
	err := r.absorb(job)
	r.sc.lastResult = nil
	job.scratch.release()
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

// runOps executes the picked ops over the job's environment, recording
// per-op stats and any evaluation results on the job and dropping each
// value after its last reader. A failing op stores its wrapped error in
// job.err and stops the job. sc supplies the chunk base and cross-chunk
// carry: the shared ordered context in the sink, the job's own in
// prepare.
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
		ctx := opCtx{mode: r.mode, stream: sc, drift: &job.drift, scratch: &job.scratch}
		out, st, res, err := r.e.invoke(i, r.pl.defs[i], job.env, ctx, chunkSpan, r.keys[op.Output], r.root)
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
		r.prof[i].Cached = r.prof[i].Cached || job.stats[i].Cached
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
	r.sampleHeap()
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

// sampleHeap raises the pass's live-heap high-water mark to the current
// reading.
func (r *streamExec) sampleHeap() {
	if live := heapLiveBytes(); live > r.hwm {
		r.hwm = live
	}
}

// finish runs the deferred suffix over the accumulated state of the
// whole trace and assembles the result the pass returns: every row on an
// unhooked pass, nil on a hooked one, whose callback is handed the flush
// rows too.
func (r *streamExec) finish() (*EvalResult, error) {
	e := r.e
	// Flush: run deferred ops in op order over the whole trace, each
	// accumulation concatenated when its first reader runs. Closing the
	// close sink scores its last blocks, and the Close ops have run by
	// then. Rows are numbered from 0, and an op deferred on an Online
	// pass fits whole.
	fenv, online := r.fenv, r.sc.online
	r.sc.base, r.sc.online = 0, false
	var drift []DriftEvent
	for i, op := range e.P.Ops {
		if r.pl.Streamed[i] {
			continue
		}
		if r.closeSink != nil && r.pl.Close[i] {
			for _, name := range r.free[i] {
				delete(fenv, name)
			}
			continue
		}
		start := time.Now()
		if k := slices.IndexFunc(r.sinks, func(s *flowSinkState) bool { return s.op == i }); k >= 0 {
			s := r.sinks[k]
			fl := s.flows
			if fl == nil {
				// Closing the sink is its op's run on this pass: it gets the
				// op's span and metrics.
				var sp *obs.Span
				if e.Span != nil {
					sp = e.Span.Child("op:" + op.Func)
					sp.Set("output", op.Output)
				}
				fl = s.finish()
				e.finishOp(sp, &OpStats{Func: op.Func, Output: op.Output, Wall: time.Since(start)}, nil)
			}
			r.prof[i].Wall += time.Since(start)
			if s == r.closeSink {
				if err := r.scoreClosed(true); err != nil {
					return nil, err
				}
				continue
			}
			fenv[op.Output] = fl
			if err := r.connsClosed(s, fl.Flows); err != nil {
				return nil, err
			}
			continue
		}
		for _, name := range op.Input {
			if parts, ok := r.accum[name]; ok {
				fr, err := concatFrames(parts)
				if err != nil {
					return nil, fmt.Errorf("core: op %d (%s): %w", i, op.Func, err)
				}
				fenv[name] = fr
				delete(r.accum, name)
			}
		}
		ctx := opCtx{mode: r.mode, stream: r.sc, drift: &drift}
		out, st, res, err := e.invoke(i, r.pl.defs[i], fenv, ctx, e.Span, r.keys[op.Output], r.root)
		if err != nil {
			return nil, err
		}
		fenv[op.Output] = out
		// The op's profile includes concatenating its inputs.
		r.prof[i].Wall, r.prof[i].Allocs, r.prof[i].OutRows, r.prof[i].Cached = time.Since(start), st.Allocs, st.OutRows, st.Cached
		if res != nil {
			r.results = append(r.results, res)
		}
		for _, name := range r.free[i] {
			delete(fenv, name)
		}
	}
	if err := r.handFlush(); err != nil {
		return nil, err
	}
	if e.Metrics != nil {
		e.Metrics.Gauge("lumen_stream_hwm_bytes",
			"Live-heap high-water mark observed at chunk boundaries and after each block of closed flows of the most recent streaming run.").Set(float64(r.hwm))
	}
	e.Profile = append(e.Profile[:0], r.prof...)
	e.LastStream.Chunks = r.nChunks
	e.LastStream.HWMBytes = r.hwm
	e.LastStream.DriftEvents += len(drift)
	if r.mode == ModeTrain {
		if online {
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

// connsClosed hands conns, connections sink s has closed, to the
// ConnsClosed hook when s is the plan's connection sink.
func (r *streamExec) connsClosed(s *flowSinkState, conns []*flow.Flow) error {
	if s.op != r.pl.ConnSink || r.hooks == nil || r.hooks.ConnsClosed == nil {
		return nil
	}
	r.connsLogged = true
	if err := r.hooks.ConnsClosed(conns); err != nil {
		return fmt.Errorf("core: conns-closed hook: %w", err)
	}
	return nil
}

// flushBlock is how many closed flows a block of the Close ops
// featurizes and scores at a time (see scoreClosed): the row bound of a
// typical chunk, so a block's arena is about one chunk's.
const flushBlock = 512

// scoreClosed hands the close sink's released flows to the plan's Close
// ops a block of flushBlock at a time, in canonical order: every full
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
// Close ops over the block, whose first flow has unit index base, in an
// environment of its own over the pass's streamed values. A hooked pass
// hands the block's rows to the callback as a flush update. The live
// heap is sampled after every block.
func (r *streamExec) runBlock(fl *Flows, base int) error {
	e, s := r.e, r.closeSink
	if err := r.connsClosed(s, fl.Flows); err != nil {
		return err
	}
	env := maps.Clone(r.fenv)
	env[e.P.Ops[s.op].Output] = fl
	r.bsc.base = base
	var drift []DriftEvent
	for i, op := range e.P.Ops {
		if !r.pl.Close[i] {
			continue
		}
		ctx := opCtx{mode: r.mode, stream: &r.bsc, drift: &drift, scratch: &r.blocks}
		out, st, res, err := e.invoke(i, r.pl.defs[i], env, ctx, e.Span, "", nil)
		if err != nil {
			return err
		}
		env[op.Output] = out
		r.prof[i].Wall += st.Wall
		r.prof[i].Allocs += st.Allocs
		r.prof[i].OutRows += st.OutRows
		if res != nil {
			r.results = append(r.results, res)
		}
		for _, dead := range r.free[i] {
			delete(env, dead)
		}
	}
	r.bsc.lastResult = nil
	e.LastStream.DriftEvents += len(drift)
	err := r.handFlush()
	r.blocks.release()
	r.sampleHeap()
	return err
}
