package core

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
)

// Mode distinguishes fitting runs from inference runs of a pipeline.
type Mode int

// Execution modes.
const (
	ModeTrain Mode = iota
	ModeTest
)

// InputName is the predefined binding for the dataset a pipeline runs on.
const InputName = "$packets"

// OpSpec is one template entry — the JSON object of the paper's Fig. 4:
// a configurable operation with named inputs, one named output and
// algorithm-specific parameters.
type OpSpec struct {
	Func   string         `json:"func"`
	Input  []string       `json:"input"`
	Output string         `json:"output"`
	Params map[string]any `json:"params"`
}

// Pipeline is a complete algorithm template.
type Pipeline struct {
	Name        string   `json:"name"`
	Granularity string   `json:"granularity"` // packet | uniflow | connection
	Ops         []OpSpec `json:"ops"`
}

// Granular parses the declared classification granularity.
func (p *Pipeline) Granular() (dataset.Granularity, error) {
	if g, ok := dataset.ParseGranularity(p.Granularity); ok {
		return g, nil
	}
	return 0, fmt.Errorf("core: pipeline %q has unknown granularity %q", p.Name, p.Granularity)
}

// EvalResult is the outcome of a test run: per-unit predictions aligned
// with ground truth and attack attribution, at the pipeline's
// classification granularity.
type EvalResult struct {
	Unit    UnitKind
	Pred    []int
	Truth   []int
	Attacks []string
	Scores  []float64 // positive-class scores when the model supports them
	UnitIdx []int
}

// OpStats records the profile of one executed operation (the paper's
// engine "generates plots of memory and time spent in each operation").
// Wall is always recorded; Allocs only when Engine.Profiling is on.
type OpStats struct {
	Func   string
	Output string
	Wall   time.Duration
	// Allocs is the delta of the process-wide heap-allocation counter
	// around the op (runtime/metrics, no stop-the-world). The counter is
	// shared by every goroutine, so when several engines run in parallel
	// an op's delta includes its neighbours' allocations — exact byte
	// attribution requires a single-engine run.
	Allocs  uint64
	OutRows int // rows when the output is a frame/grouped
	// Cached marks results not computed by this engine: served from a
	// shared Cache, or waited out while another engine computed them.
	Cached bool
}

// opCtx is passed to every op invocation.
type opCtx struct {
	mode    Mode
	outName string
	state   map[string]any
	seed    int64
	result  *EvalResult
	// span is the per-op span when tracing is on (nil otherwise); ops
	// with internal structure (train) hang child events off it.
	span *obs.Span
	// metrics is the engine's registry (nil when metrics are off).
	metrics *obs.Metrics
	// stream carries the chunk's global base index and per-op fold state
	// across the chunks of a pass; the flush pass runs over it too.
	stream *streamCtx
	// drift collects DriftEvents raised by drift_detect ops during this
	// chunk or flush pass.
	drift *[]DriftEvent
	// scratch is the chunk job's buffer source (nil on flush passes):
	// scratch.arena() is where an op gets the chunk-lifetime buffers of its
	// output (frame columns, feature matrices, unit indices), the chunk's
	// arena on a recycling pass and nil, which serves with make, otherwise.
	// Only what is dead once the chunk's hook returns may come from it.
	scratch *jobScratch
}

func (c *opCtx) setState(v any) { c.state[c.outName] = v }
func (c *opCtx) getState() any  { return c.state[c.outName] }

// streamCtx is the cross-chunk execution state of one RunStream pass:
// the current chunk's base index into the full stream, and fold state
// (keyed by op output name) that sequential packet ops — iat deltas,
// Kitsune/802.11 damped statistics — carry from one chunk to the next so
// every chunking of a trace yields the same rows.
type streamCtx struct {
	base  int
	carry map[string]any
	// online mirrors StreamConfig.Online for the ops: the train op
	// evaluates prequentially.
	online bool
	// lastResult carries the train op's per-chunk EvalResult to a
	// downstream drift_detect op within the same chunk; the sink clears it
	// at chunk end, since the rows may live in the chunk's arena.
	lastResult *EvalResult
}

// DriftEvent is one detection raised by a drift_detect op: the global row
// position where the Page-Hinkley statistic crossed its threshold, plus
// the statistic and running score mean at the moment of detection. Events
// surface per chunk through StreamHooks.ChunkUpdate.Drift.
type DriftEvent struct {
	Output string // drift_detect op's output name
	Seq    int    // chunk sequence number
	Base   int    // global index of the chunk's first row
	Row    int    // row offset within the chunk
	Stat   float64
	Mean   float64
}

// carry returns this op's cross-chunk fold state, if an earlier chunk
// saved one.
func (c *opCtx) carry() (any, bool) {
	v, ok := c.stream.carry[c.outName]
	return v, ok
}

// setCarry saves this op's cross-chunk fold state.
func (c *opCtx) setCarry(v any) { c.stream.carry[c.outName] = v }

// Engine compiles and executes one pipeline. Train must run before Test;
// the fitted state of stateful operations (scalers, filters, models) is
// keyed by their output names.
type Engine struct {
	P    *Pipeline
	Seed int64
	// Profiling enables per-op allocation sampling (see OpStats.Allocs).
	// Off by default: wall-clock timing is always on and free, while
	// allocation counters cost one runtime/metrics read per op boundary.
	Profiling bool
	// Span, when set, becomes the parent of one child span per executed
	// op ("op:<func>" with output/rows_out/cached attributes). Nil (the
	// default) disables tracing with no allocations on the op path.
	Span *obs.Span
	// Metrics, when set, receives per-op counters and wall-time
	// histograms (lumen_ops_total, lumen_op_wall_seconds,
	// lumen_op_cache_served_total) plus fit metrics from train ops.
	Metrics *obs.Metrics

	state map[string]any
	cache *Cache
	// trainOp is the index of the pipeline's train op and modelOp that of
	// the model op it reads, as check resolved them.
	trainOp, modelOp int
	// Profile holds per-op stats of the most recent run.
	Profile []OpStats
	// LastStream describes the most recent RunStream execution (chunk
	// count, pipeline shape, stage stalls, memory high-water marks).
	LastStream StreamStats
	trained    bool
}

// NewEngine wraps a pipeline. Call Check (or let Train do it) before use.
func NewEngine(p *Pipeline) *Engine {
	return &Engine{P: p, state: make(map[string]any)}
}

// SetCache attaches a shared cache for stateless op results (see Cache).
func (e *Engine) SetCache(c *Cache) { e.cache = c }

// Check statically validates the pipeline: known ops, defined inputs,
// kind-correct connections, single final train op — the "execution engine
// verifies the file's syntax (e.g. type checks)" step of the paper.
func (e *Engine) Check() error {
	_, err := e.check()
	return err
}

// check is Check returning each op's registered definition, which a
// pass resolves here once instead of per op invocation.
func (e *Engine) check() ([]*opDef, error) {
	if len(e.P.Ops) == 0 {
		return nil, fmt.Errorf("core: pipeline %q has no ops", e.P.Name)
	}
	if _, err := e.P.Granular(); err != nil {
		return nil, err
	}
	defs := make([]*opDef, len(e.P.Ops))
	kinds := map[string]Kind{InputName: KindPackets}
	train := -1
	for i, op := range e.P.Ops {
		def, ok := opRegistry[op.Func]
		if !ok {
			return nil, fmt.Errorf("core: op %d: unknown func %q (available: %v)", i, op.Func, Ops())
		}
		defs[i] = def
		if err := checkInputs(def, op, kinds, i); err != nil {
			return nil, err
		}
		if def.traits.check != nil {
			if err := def.traits.check(params(op.Params)); err != nil {
				return nil, fmt.Errorf("core: op %d: %w", i, err)
			}
		}
		if op.Output == "" {
			return nil, fmt.Errorf("core: op %d (%s): missing output name", i, op.Func)
		}
		if _, dup := kinds[op.Output]; dup {
			return nil, fmt.Errorf("core: op %d (%s): output %q already defined", i, op.Func, op.Output)
		}
		kinds[op.Output] = def.sig.out
		if op.Func == "train" {
			if train >= 0 {
				return nil, fmt.Errorf("core: op %d: multiple train ops are not supported", i)
			}
			train = i
		}
	}
	if train < 0 {
		return nil, fmt.Errorf("core: pipeline %q has no train op", e.P.Name)
	}
	// Only a model op makes the train op's model input. The indices are
	// written only when they change, so the check a new pass runs never
	// races a background retrain reading them (NewTrainableModel).
	model := slices.IndexFunc(e.P.Ops, func(op OpSpec) bool { return op.Output == e.P.Ops[train].Input[0] })
	if train != e.trainOp || model != e.modelOp {
		e.trainOp, e.modelOp = train, model
	}
	return defs, nil
}

func checkInputs(def *opDef, op OpSpec, kinds map[string]Kind, i int) error {
	want := def.sig.in
	switch {
	case def.sig.variadicIn:
		if len(op.Input) < len(want) {
			return fmt.Errorf("core: op %d (%s): needs at least %d inputs, got %d", i, op.Func, len(want), len(op.Input))
		}
	case len(op.Input) != len(want):
		return fmt.Errorf("core: op %d (%s): needs %d inputs, got %d", i, op.Func, len(want), len(op.Input))
	}
	for j, name := range op.Input {
		k, ok := kinds[name]
		if !ok {
			return fmt.Errorf("core: op %d (%s): input %q is not defined by any earlier op", i, op.Func, name)
		}
		exp := want[len(want)-1]
		if j < len(want) {
			exp = want[j]
		}
		if k != exp {
			return fmt.Errorf("core: op %d (%s): input %q is %v, want %v", i, op.Func, name, k, exp)
		}
	}
	return nil
}

// invoke is the one place an op runs, on chunk and flush passes alike: it
// resolves op i's inputs from env, opens the op's span under parent, runs
// it, records its stats, closes the span and the metrics, and wraps a
// failure with the op's position. ctx arrives holding what the pass fixes
// (mode, stream context, drift slot). A non-empty key is the output's
// lineage key (see lineageKeys), and the engine's cache serves it: a hit
// returns at once, a miss racing another engine's computation waits for
// its result (singleflight). root is what the key's root names.
func (e *Engine) invoke(i int, def *opDef, env map[string]Value, ctx opCtx, parent *obs.Span, key string, root *dataset.Labeled) (Value, OpStats, *EvalResult, error) {
	op := e.P.Ops[i]
	st := OpStats{Func: op.Func, Output: op.Output}
	in := make([]Value, len(op.Input))
	for j, name := range op.Input {
		v, ok := env[name]
		if !ok {
			return nil, st, nil, fmt.Errorf("core: op %d (%s): value %q was freed or never set", i, op.Func, name)
		}
		in[j] = v
	}
	ctx.outName, ctx.state, ctx.seed, ctx.metrics = op.Output, e.state, e.Seed, e.Metrics
	// The explicit nil guard (not just nil-safe methods) keeps the
	// disabled path allocation-free: the name concatenation below
	// would allocate even if Child were a no-op.
	if parent != nil {
		ctx.span = parent.Child("op:" + op.Func)
		ctx.span.Set("output", op.Output)
	}
	var out Value
	var err error
	start := time.Now()
	if key != "" {
		// allocs is declared in this branch so that the closure capturing
		// it costs the uncached path nothing.
		var allocs uint64
		var computed bool
		out, err, computed = e.cache.getOrCompute(key, root, func() (v Value, err error) {
			v, allocs, err = e.runOp(def, &ctx, op, in)
			return v, err
		})
		st.Allocs, st.Cached = allocs, !computed
	} else {
		out, st.Allocs, err = e.runOp(def, &ctx, op, in)
	}
	// For cache hits and dedup-waits Wall is lookup/wait time, not
	// compute time — what this engine actually spent.
	st.Wall = time.Since(start)
	if err == nil {
		st.OutRows = outRows(out)
	}
	e.finishOp(ctx.span, &st, err)
	if err != nil {
		return nil, st, nil, fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
	}
	return out, st, ctx.result, nil
}

// runOp executes one op, sampling the allocation counter around it when
// profiling is enabled. With profiling off this performs no memory-stat
// reads at all.
func (e *Engine) runOp(def *opDef, ctx *opCtx, op OpSpec, in []Value) (Value, uint64, error) {
	var before, allocs uint64
	if e.Profiling {
		before = heapAllocBytes()
	}
	out, err := def.run(ctx, in, params(op.Params))
	if e.Profiling {
		allocs = heapAllocBytes() - before
	}
	return out, allocs, err
}

// finishOp closes the op's span and records its metrics. Both sinks are
// individually optional; with neither attached this does nothing.
func (e *Engine) finishOp(sp *obs.Span, st *OpStats, err error) {
	if sp != nil {
		sp.Set("rows_out", st.OutRows)
		sp.Set("cached", st.Cached)
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	if e.Metrics == nil {
		return
	}
	e.Metrics.Counter("lumen_ops_total",
		"Pipeline operations executed (including cache-served ones).",
		"op", st.Func).Inc()
	e.Metrics.Histogram("lumen_op_wall_seconds",
		"Wall time spent per operation (lookup/wait time for cache-served ops).",
		nil, "op", st.Func).Observe(st.Wall.Seconds())
	if st.Cached {
		e.Metrics.Counter("lumen_op_cache_served_total",
			"Operations whose result came from the shared cache instead of computation.",
			"op", st.Func).Inc()
	}
}

// heapAllocName is the cumulative heap-allocation counter sampled around
// each op when profiling is enabled. Unlike runtime.ReadMemStats it does
// not stop the world, so profiled engines do not serialize every other
// goroutine in the process.
const heapAllocName = "/gc/heap/allocs:bytes"

// heapAllocBytes samples the process-wide cumulative heap allocation
// counter. The counter is process-global: an op's Allocs delta includes
// allocations made concurrently by other goroutines, so byte attribution
// is only exact when one engine runs at a time (see OpStats.Allocs).
func heapAllocBytes() uint64 {
	g := gauge{{Name: heapAllocName}}
	return g.read()
}

// heapLiveName is the live-heap gauge sampled at chunk boundaries on
// streaming runs (lumen_stream_hwm_bytes). Like heapAllocName it avoids
// the stop-the-world cost of runtime.ReadMemStats.
const heapLiveName = "/memory/classes/heap/objects:bytes"

// gauge is one runtime/metrics sample, kept so that reading it again
// allocates nothing: metrics.Read's argument escapes, so a fresh sample
// is a heap object. A stream run keeps one on heapLiveName, the bytes
// currently occupied by live (plus not-yet-collected) heap objects,
// process-wide, and reads it once a chunk.
type gauge [1]metrics.Sample

// read samples the gauge's value; 0 when the runtime has no such
// uint64 metric.
func (g *gauge) read() uint64 {
	metrics.Read(g[:])
	if g[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return g[0].Value.Uint64()
}

// outRows reports the row count of a frame or grouped output (0 for
// other value kinds), on both the computed and the cache-served paths.
func outRows(v Value) int {
	switch x := v.(type) {
	case *Frame:
		return x.N
	case *Grouped:
		return len(x.Groups)
	}
	return 0
}

// Train fits the pipeline's stateful ops and model on a labelled dataset:
// a whole-trace TrainStream, one chunk through the one executor.
func (e *Engine) Train(ds *dataset.Labeled) error {
	return e.TrainStream(ds, StreamConfig{})
}

// Test runs the fitted pipeline on a dataset and returns per-unit
// predictions with ground truth: a whole-trace TestStream.
func (e *Engine) Test(ds *dataset.Labeled) (*EvalResult, error) {
	return e.TestStream(ds, StreamConfig{})
}

// TrainedModel returns the fitted classifier behind the pipeline's train
// op (ok=false before Train). Combined with mlkit.SaveModel this gives
// the "save_path" output of the paper's Fig. 4 template.
func (e *Engine) TrainedModel() (mlkit.Classifier, bool) {
	if tr := e.fitted(); tr != nil {
		return tr.Clf, true
	}
	return nil, false
}

// fitted returns the train op's fitted state, nil before Train.
func (e *Engine) fitted() *Trained {
	if !e.trained {
		return nil
	}
	tr, _ := e.state[e.P.Ops[e.trainOp].Output].(*Trained)
	return tr
}

// NewTrainableModel builds a fresh, unfitted classifier from the model
// op the pipeline's train op reads (the same construction Train
// performs). A resident daemon uses it to fit a replacement model on
// reservoir data in the background before hot-swapping it in via
// ReplaceModel/SwapHandle.
func (e *Engine) NewTrainableModel() (mlkit.Classifier, error) {
	if _, err := e.check(); err != nil {
		return nil, err
	}
	spec, err := opModel(nil, nil, params(e.P.Ops[e.modelOp].Params))
	if err != nil {
		return nil, fmt.Errorf("core: pipeline %q: %w", e.P.Name, err)
	}
	return buildClassifier(spec.(ModelSpec), e.Seed)
}

// ReplaceModel swaps the fitted classifier behind the pipeline's train op
// in place, leaving every other piece of fitted state (scalers, filters,
// PCA bases) untouched. It is the model half of a hot swap: a resident
// pipeline installs an mlkit.SwapHandle here once, then retargets the
// handle between chunks (see StreamHooks). The engine must already be
// trained — ReplaceModel changes which classifier scores, not whether
// the pipeline is fitted.
func (e *Engine) ReplaceModel(clf mlkit.Classifier) error {
	tr := e.fitted()
	if tr == nil {
		return fmt.Errorf("core: ReplaceModel on untrained pipeline %q", e.P.Name)
	}
	tr.Clf = clf
	return nil
}

// InstallModel installs an externally fitted classifier (e.g. loaded via
// mlkit.LoadModel) as the pipeline's trained model and marks the engine
// trained, without running a training pass. This only yields a correctly
// fitted pipeline when no other op needs training-time state: pipelines
// whose test path is preprocessing-stateless (field extraction, filters,
// log scaling) qualify; pipelines with normalize/pca/onehot ops do not —
// train those with Train/TrainStream instead.
func (e *Engine) InstallModel(clf mlkit.Classifier) error {
	if err := e.Check(); err != nil {
		return err
	}
	e.state[e.P.Ops[e.trainOp].Output] = &Trained{Spec: ModelSpec{Type: "installed"}, Clf: clf}
	e.trained = true
	return nil
}
