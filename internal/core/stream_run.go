package core

import (
	"fmt"
	"sync"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// streamExec is the state of one RunStream execution, shared between the
// sequential loop and the staged pipeline. The per-chunk work lives in
// chunkJob so that the pipeline can fan it out to workers; everything on
// streamExec itself is only ever touched by one goroutine at a time (the
// sequential loop, or the sink stage absorbing jobs in stream order).
type streamExec struct {
	e    *Engine
	mode Mode
	pl   *streamPlan
	meta dataset.SourceMeta
	// sc carries cross-chunk fold state for the ordered ops; only the
	// goroutine that runs them (sequential loop / sink stage) touches it.
	sc    *streamCtx
	sinks map[int]*flowSinkState
	// lanes holds the per-shard sink partitions of a sharded pipelined
	// run (nil otherwise); finish() merges their flow logs back into the
	// canonical order.
	lanes []*shardLane
	// hooks are the pass's per-chunk callbacks (nil when unhooked); absorb
	// invokes them on the ordered sink goroutine.
	hooks *StreamHooks
	// trainFrame is the name of the train op's feature-frame input,
	// resolved once so hooks with WantFeatures can find it per chunk.
	trainFrame string
	prof       []OpStats

	accum   map[string][]*Frame
	lastVal map[string]Value
	results []*EvalResult
	hwm     uint64

	// flowDS and accSums are what plans with flow sinks retain of the
	// packet stream for the flush-time feature pass, as value copies that
	// outlive every chunk: the stream's metadata with its per-packet
	// labels, and each packet's summary (so flow features can read
	// member-packet fields without a decoded packet set). flowDS is nil
	// without flow sinks; both are fed in stream order, on the ordered
	// goroutine (feedSinks, or the shard router).
	flowDS  *dataset.Labeled
	accSums []netpkt.PacketSummary
	nChunks int
}

// newStreamExec validates the pipeline and sets up the plan, flow sinks,
// profile and accumulators of one RunStream pass.
func newStreamExec(e *Engine, src dataset.Source, mode Mode, online bool) (*streamExec, error) {
	if err := e.Check(); err != nil {
		return nil, err
	}
	r := &streamExec{
		e:       e,
		mode:    mode,
		pl:      e.planStream(mode, online),
		meta:    src.Meta(),
		sc:      &streamCtx{carry: map[string]any{}, online: online},
		sinks:   map[int]*flowSinkState{},
		accum:   map[string][]*Frame{},
		lastVal: map[string]Value{},
	}
	sinks, err := newFlowSinkStates(e, r.pl)
	if err != nil {
		return nil, err
	}
	r.sinks = sinks
	r.prof = make([]OpStats, len(e.P.Ops))
	for i, op := range e.P.Ops {
		r.prof[i] = OpStats{Func: op.Func, Output: op.Output}
	}
	for _, op := range e.P.Ops {
		if op.Func == "train" && len(op.Input) == 2 {
			r.trainFrame = op.Input[1]
		}
	}
	if len(r.sinks) > 0 {
		r.flowDS = &dataset.Labeled{
			Name:        r.meta.Name,
			Granularity: r.meta.Granularity,
			Link:        r.meta.Link,
			Devices:     r.meta.Devices,
		}
	}
	return r, nil
}

// newFlowSinkStates builds one incremental assembler per flow-sink op.
// Sharded runs call it once per lane, so each lane assembles its own
// flow partition with an independent assembler.
func newFlowSinkStates(e *Engine, pl *streamPlan) (map[int]*flowSinkState, error) {
	sinks := map[int]*flowSinkState{}
	for i, op := range e.P.Ops {
		if !pl.flowSink[i] {
			continue
		}
		opts, gran, err := flowParams(params(op.Params))
		if err != nil {
			return nil, fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
		}
		s := &flowSinkState{gran: gran}
		if gran == dataset.UniflowG {
			s.uni = flow.NewUniflowAssembler(opts)
		} else {
			s.conn = flow.NewConnAssembler(opts)
		}
		sinks[i] = s
	}
	return sinks, nil
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
	// wsc is the job-local stream context used on parallel workers. Ops
	// that fan out never depend on cross-chunk fold state, but some
	// (field_extract without iat) still save it; writing into a
	// discardable job-local carry keeps them race-free.
	wsc streamCtx

	// Shard-routing state, used only by sharded pipelined runs: the lane
	// of every packet, the scoring frame and its per-lane row partition,
	// each lane's output, and the barrier the merger waits on before
	// stitching. routed marks jobs dispatched to the lanes; demoted marks
	// jobs whose scoring ran on the router instead.
	shardIDs  []uint8
	laneFrame *Frame
	laneRows  [][]int
	laneRes   []laneResult
	laneDone  sync.WaitGroup
	routed    bool
	demoted   bool
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

// retainForFlush appends the value copies a plan with flow sinks keeps
// of one chunk (see flowDS): its labels and one summary per packet. Only
// the goroutine that owns stream order may call it.
func (r *streamExec) retainForFlush(nc *dataset.NumberedChunk) {
	r.flowDS.Labels = append(r.flowDS.Labels, nc.Labels...)
	r.flowDS.Attacks = append(r.flowDS.Attacks, nc.Attacks...)
	for i := range nc.Views {
		r.accSums = append(r.accSums, nc.Views[i].Summary())
	}
}

// feedSinks pushes the job's packets through every incremental flow
// assembler, as the summaries retainForFlush just built. Only the
// goroutine that owns stream order may call it.
func (r *streamExec) feedSinks(job *chunkJob) {
	if len(r.sinks) == 0 {
		return
	}
	r.retainForFlush(&job.nc)
	for j, sum := range r.accSums[len(r.accSums)-job.nc.Len():] {
		gi := job.nc.Base + j
		for _, s := range r.sinks {
			s.add(gi, sum)
		}
	}
}

// runOps executes the picked ops over the job's environment, recording
// per-op stats and any evaluation results on the job. A failing op stores
// its wrapped error in job.err and stops the job. sc supplies the chunk
// base and cross-chunk carry: the shared ordered context, or the job's
// own when running on a parallel worker.
func (r *streamExec) runOps(job *chunkJob, pick []bool, sc *streamCtx, chunkSpan *obs.Span) {
	if job.err != nil {
		return
	}
	e := r.e
	sc.base = job.nc.Base
	for i, op := range e.P.Ops {
		if !pick[i] {
			continue
		}
		in := make([]Value, len(op.Input))
		for j, name := range op.Input {
			v, ok := job.env[name]
			if !ok {
				job.err = fmt.Errorf("core: op %d (%s): value %q was freed or never set", i, op.Func, name)
				return
			}
			in[j] = v
		}
		ctx := &opCtx{mode: r.mode, outName: op.Output, state: e.state, seed: e.Seed, metrics: e.Metrics, stream: sc, drift: &job.drift}
		if chunkSpan != nil {
			ctx.span = chunkSpan.Child("op:" + op.Func)
			ctx.span.Set("output", op.Output)
		}
		st := OpStats{Func: op.Func, Output: op.Output}
		start := time.Now()
		out, err := e.runOp(opRegistry[op.Func], ctx, op, in, &st)
		st.Wall = time.Since(start)
		if err == nil {
			st.OutRows = outRows(out)
		}
		e.finishOp(ctx.span, &st, err)
		if err != nil {
			job.err = fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
			return
		}
		job.stats[i] = st
		job.env[op.Output] = out
		if ctx.result != nil {
			job.results = append(job.results, ctx.result)
		}
	}
}

// absorb folds one finished job into the run, in stream order: profile
// stats, evaluation results and accumulated frames for deferred ops. It
// returns the job's error (the stream must abort on it, exactly like
// sequential execution).
func (r *streamExec) absorb(job *chunkJob) error {
	if job.err != nil {
		return job.err
	}
	for i := range job.stats {
		r.prof[i].Wall += job.stats[i].Wall
		r.prof[i].Allocs += job.stats[i].Allocs
		r.prof[i].OutRows += job.stats[i].OutRows
	}
	r.results = append(r.results, job.results...)
	for i := range job.drift {
		job.drift[i].Seq = job.nc.Seq
	}
	r.e.LastStream.DriftEvents += len(job.drift)
	for name := range r.pl.accum {
		v, ok := job.env[name]
		if !ok {
			continue
		}
		if fr, isFrame := v.(*Frame); isFrame {
			r.accum[name] = append(r.accum[name], fr)
		} else {
			r.lastVal[name] = v
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

// finish runs the deferred (barrier) suffix with batch semantics over
// the accumulated state and assembles the final result.
func (r *streamExec) finish() (*EvalResult, error) {
	e := r.e
	if e.Metrics != nil {
		e.Metrics.Gauge("lumen_stream_hwm_bytes",
			"Live-heap high-water mark observed at chunk boundaries of the most recent streaming run.").Set(float64(r.hwm))
	}

	// Flush: run deferred ops in op order with batch semantics over the
	// concatenated accumulations.
	fenv := map[string]Value{}
	concatenated := map[string]*Frame{}
	resolve := func(name string) (Value, error) {
		if v, ok := fenv[name]; ok {
			return v, nil
		}
		if fr, ok := concatenated[name]; ok {
			return fr, nil
		}
		if parts, ok := r.accum[name]; ok {
			fr, err := concatFrames(parts)
			if err != nil {
				return nil, err
			}
			concatenated[name] = fr
			return fr, nil
		}
		if v, ok := r.lastVal[name]; ok {
			return v, nil
		}
		if name == InputName {
			// Every registered reader of the packet input streams or is a
			// flow sink, so nothing keeps packets for the flush.
			return nil, fmt.Errorf("the packet stream is not retained for deferred ops")
		}
		return nil, fmt.Errorf("value %q was freed or never set", name)
	}
	for i, op := range e.P.Ops {
		if r.pl.streamed[i] {
			continue
		}
		st := OpStats{Func: op.Func, Output: op.Output}
		start := time.Now()
		if s, ok := r.sinks[i]; ok {
			fenv[op.Output] = r.finishFlows(i, s)
			r.prof[i].Wall += time.Since(start)
			continue
		}
		in := make([]Value, len(op.Input))
		for j, name := range op.Input {
			v, err := resolve(name)
			if err != nil {
				return nil, fmt.Errorf("core: op %d (%s): %w", i, op.Func, err)
			}
			in[j] = v
		}
		ctx := &opCtx{mode: r.mode, outName: op.Output, state: e.state, seed: e.Seed, metrics: e.Metrics}
		if e.Span != nil {
			ctx.span = e.Span.Child("op:" + op.Func)
			ctx.span.Set("output", op.Output)
		}
		out, err := e.runOp(opRegistry[op.Func], ctx, op, in, &st)
		st.Wall = time.Since(start)
		if err == nil {
			st.OutRows = outRows(out)
		}
		e.finishOp(ctx.span, &st, err)
		if err != nil {
			return nil, fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
		}
		fenv[op.Output] = out
		r.prof[i].Wall, r.prof[i].Allocs, r.prof[i].OutRows = st.Wall, st.Allocs, st.OutRows
		if ctx.result != nil {
			r.results = append(r.results, ctx.result)
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
