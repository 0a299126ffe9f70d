package daemon

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

// ErrStopped is returned by control calls (Swap, Promote, Rollback,
// Reload) once a pipeline is no longer running.
var ErrStopped = errors.New("daemon: pipeline is not running")

// State is a pipeline's lifecycle state.
type State int

// Pipeline lifecycle states, in the order they are reached. The numeric
// value is exported as the lumen_daemon_pipeline_state gauge.
const (
	// StateRunning: the scoring goroutine is consuming the source.
	StateRunning State = iota
	// StateDraining: a drain was requested; the pipeline finishes the
	// packets already ingested and then stops.
	StateDraining
	// StateStopped: the pipeline drained cleanly (conn-log written,
	// alert sink flushed).
	StateStopped
	// StateFailed: the pipeline aborted with an error (see Status).
	StateFailed
)

// String names the state ("running", "draining", "stopped", "failed").
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Drainer is the optional source capability the daemon uses for graceful
// drain: Drain asks the source to stop producing, after which its Next
// returns false once the already-ingested packets are consumed. All
// daemon sources (ReplaySource, FeedSource, DirSource) implement it;
// finite sources without it simply run to their natural end.
type Drainer interface {
	Drain()
}

// PipeConfig describes one resident pipeline.
type PipeConfig struct {
	// Name identifies the pipeline in the registry, metrics labels, the
	// HTTP surface, and every alert line. Required, unique per daemon.
	Name string
	// Engine is the trained engine to score with. The daemon takes
	// exclusive ownership: it installs a mlkit.SwapHandle behind the
	// train op (enabling hot swap) and drives the engine from the
	// pipeline's goroutine. Do not share one engine across pipelines.
	Engine *core.Engine
	// Source is the packet source to ingest. Sources implementing
	// Drainer drain gracefully; sources implementing Reset support
	// Reload.
	Source dataset.Source
	// Stream bounds chunking and execution shape. Hooks must be nil —
	// the per-chunk hook slot is how the daemon drives the pipeline.
	Stream core.StreamConfig
	// Alerts receives one JSONL verdict line per scored unit (see Alert).
	// Nil disables the alert sink. The writer is only accessed from the
	// pipeline's goroutine.
	Alerts io.Writer
	// AnomaliesOnly suppresses alert lines for units predicted benign
	// (pred 0), keeping only anomalies. Verdict counters still count
	// every scored unit.
	AnomaliesOnly bool
	// ConnLog receives a Zeek-style TSV connection log, one section
	// (header and rows) per pass, written from the pass's
	// core.StreamHooks.ConnsClosed. Rows are written while the pass runs,
	// as connections close and no earlier one can follow them; the
	// connections still open close when the pass ends: at drain, unless
	// a reload ended a pass earlier. A pipeline that assembles
	// connections itself (its plan has a connection-granularity
	// flow_assemble sink) logs exactly those, the connections it scored,
	// under that op's idle_timeout, a block before the block's verdicts;
	// any other pipeline logs the engine's log-only connection sink,
	// under the default options. A pass that ends cleanly writes a
	// section bit-identical to flow.WriteConnLog over flow.Connections of
	// the packets it ingested; one that fails ends its section at the
	// last connections it handed on. No connection spans two passes.
	ConnLog io.Writer
	// Retrain enables drift-triggered background retraining with hot swap
	// (see RetrainConfig).
	Retrain RetrainConfig
}

// SwapOptions configures one hot-swap attempt.
type SwapOptions struct {
	// ShadowChunks is the number of chunks to shadow-score before the
	// auto decision (default 8 when AutoDecide is set).
	ShadowChunks int `json:"shadow_chunks"`
	// AutoDecide promotes automatically once ShadowChunks chunks were
	// shadow-scored and the disagreement fraction is at most MaxDisagree,
	// and rolls back otherwise. When false the swap shadows until an
	// explicit Promote or Rollback call.
	AutoDecide bool `json:"-"`
	// MaxDisagree is the largest tolerated disagreement fraction for an
	// automatic promote (0 demands bit-identical verdicts).
	MaxDisagree float64 `json:"max_disagree"`
}

// SwapReport is the terminal record of one hot-swap attempt.
type SwapReport struct {
	// Outcome is "promoted" or "rolled_back".
	Outcome string `json:"outcome"`
	// By records who decided: "auto" or "operator".
	By string `json:"by"`
	// Generation is the active generation after the decision.
	Generation int `json:"generation"`
	// Chunks and Rows tally what the shadow phase scored.
	Chunks int `json:"chunks"`
	Rows   int `json:"rows"`
	// DisagreeFrac and ScoreMAD are the final divergence numbers.
	DisagreeFrac float64 `json:"disagree_frac"`
	ScoreMAD     float64 `json:"score_mad"`
}

// StreamShape is the execution shape of a pipeline's current pass, as
// the engine reports it (core.StreamStats). It is always the shape
// PipeConfig.Stream asked for: the engine never rewrites a request.
type StreamShape struct {
	// Pipelined is true when Depth > 0: a source and an ops goroutine run
	// ahead of the scoring goroutine, Depth chunks queued at each hand-off.
	Pipelined bool `json:"pipelined"`
	Depth     int  `json:"depth"`
}

// PipeStatus is a pipeline's observable state, as served by /pipelines.
type PipeStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Passes counts RunStream passes (reloads start a new pass).
	Passes  int64 `json:"passes"`
	Chunks  int64 `json:"chunks"`
	Packets int64 `json:"packets"`
	// Verdicts counts scored units; Alerts counts emitted alert lines.
	Verdicts int64 `json:"verdicts"`
	Alerts   int64 `json:"alerts"`
	Reloads  int64 `json:"reloads"`
	// DecodeMode reports how the source reads and decodes ("mmap+lazy",
	// "buffered", "idle", ...), for sources that expose it.
	DecodeMode string `json:"decode_mode,omitempty"`
	// FeedConnErrors counts the producer connections a feed source closed
	// on a fault, by reason (see FeedSource.ConnErrors); omitted while
	// there were none.
	FeedConnErrors map[string]int64 `json:"feed_conn_errors,omitempty"`
	// Stream is the current pass's requested and effective execution
	// shape, present once the pass has absorbed its first chunk.
	Stream *StreamShape `json:"stream,omitempty"`
	// Barrier names the first op of the pass's plan that runs only at
	// drain, and why (see core.PlanBarrier): everything behind it,
	// verdicts included, waits for drain. Omitted when every op streams
	// or runs as flows close.
	Barrier *core.PlanBarrier `json:"barrier,omitempty"`
	// ModelGeneration is the active model's generation (1 = initial).
	ModelGeneration int `json:"model_generation"`
	// Shadowing reports an in-progress hot swap, with its live divergence.
	Shadowing      bool        `json:"shadowing"`
	ShadowChunks   int         `json:"shadow_chunks,omitempty"`
	ShadowDisagree float64     `json:"shadow_disagree,omitempty"`
	ShadowScoreMAD float64     `json:"shadow_score_mad,omitempty"`
	LastSwap       *SwapReport `json:"last_swap,omitempty"`
	Error          string      `json:"error,omitempty"`
}

// ctrlKind discriminates control messages.
type ctrlKind int

const (
	ctrlSwap ctrlKind = iota
	ctrlPromote
	ctrlRollback
)

// ctrlMsg is one queued control-plane request. Messages are applied
// between chunks on the scoring goroutine (see Pipe.afterChunk), so a
// control action only ever takes effect on a chunk boundary.
type ctrlMsg struct {
	kind  ctrlKind
	clf   mlkit.Classifier
	opts  SwapOptions
	reply chan error
}

// Pipe is one resident pipeline: a trained engine scoring a source on a
// dedicated goroutine. Control methods (Swap, Promote, Rollback, Reload,
// Drain) are safe to call from any goroutine; they take effect on the
// next chunk boundary.
type Pipe struct {
	name    string
	metrics *obs.Metrics
	tracer  *obs.Tracer
	tid     int

	eng    *core.Engine
	handle *mlkit.SwapHandle
	src    dataset.Source
	stream core.StreamConfig
	// barrier is the plan's first drain-time op (nil: none); the plan
	// is fixed by the pipeline and the stream config.
	barrier *core.PlanBarrier

	// The alert sink (nil disables it): alertBuf holds encoded whole lines
	// not yet handed to alertw; alertPrefix is the current batch's constant
	// line prefix, nameJSON the pipeline name as a JSON string and scores
	// the text of recent scores. All are reused across batches, so
	// steady-state encoding allocates nothing.
	alertw        io.Writer
	nameJSON      []byte
	alertPrefix   []byte
	alertBuf      []byte
	scores        scoreTable
	anomaliesOnly bool
	// The conn-log (connw nil disables it) is written through the pass's
	// ConnsClosed hook; connLog writes the current pass's section, nil
	// until the pass first logs.
	connw   io.Writer
	connLog *flow.ConnLogWriter

	ctrl chan ctrlMsg
	done chan struct{}

	// mu guards control-side state read by Status and the run loop.
	mu            sync.Mutex
	state         State
	runErr        error
	stopReq       bool
	reloadPending bool
	lastSwap      *SwapReport
	shape         *StreamShape

	// Scoring-goroutine-only state (touched exclusively from afterChunk
	// and the run loop; never locked).
	swapOpts SwapOptions
	span     *obs.Span
	// Retrain state: the reservoir and cooldown marker live on the
	// scoring goroutine; retrainBusy is the single-flight latch shared
	// with the background fit goroutine.
	retrain      RetrainConfig
	res          *mlkit.Reservoir
	lastRetrain  int64
	retrainArmed bool
	retrainBusy  atomic.Bool

	passes   atomic.Int64
	chunks   atomic.Int64
	packets  atomic.Int64
	verdicts atomic.Int64
	alerts   atomic.Int64
	reloads  atomic.Int64

	mChunks, mPackets, mVerdicts, mAlerts *obs.Counter
	mPasses, mReloads, mDrift, mNonFinite *obs.Counter
	mState, mGen, mShadowing, mMaps       *obs.Gauge
}

// newPipe validates cfg and builds the pipeline without starting it.
func (d *Daemon) newPipe(cfg PipeConfig) (*Pipe, error) {
	if cfg.Name == "" {
		return nil, errors.New("daemon: PipeConfig.Name is required")
	}
	if cfg.Engine == nil || cfg.Source == nil {
		return nil, fmt.Errorf("daemon: pipeline %q needs both an engine and a source", cfg.Name)
	}
	if cfg.Stream.Hooks != nil {
		return nil, fmt.Errorf("daemon: pipeline %q: StreamConfig.Hooks is owned by the daemon", cfg.Name)
	}
	clf, ok := cfg.Engine.TrainedModel()
	if !ok {
		return nil, fmt.Errorf("daemon: pipeline %q has no trained model; train or install one first", cfg.Name)
	}
	plan, err := cfg.Engine.StreamPlan(core.ModeTest)
	if err != nil {
		return nil, fmt.Errorf("daemon: pipeline %q: %w", cfg.Name, err)
	}
	handle, isHandle := clf.(*mlkit.SwapHandle)
	if !isHandle {
		handle = mlkit.NewSwapHandle(clf)
		if err := cfg.Engine.ReplaceModel(handle); err != nil {
			return nil, err
		}
	}
	p := &Pipe{
		name:          cfg.Name,
		metrics:       d.metrics,
		tracer:        d.tracer,
		eng:           cfg.Engine,
		handle:        handle,
		src:           cfg.Source,
		stream:        cfg.Stream,
		barrier:       plan.Barrier,
		anomaliesOnly: cfg.AnomaliesOnly,
		ctrl:          make(chan ctrlMsg, 16),
		done:          make(chan struct{}),
		state:         StateRunning,
		retrain:       cfg.Retrain,
	}
	p.stream.Hooks = &core.StreamHooks{AfterChunk: p.afterChunk}
	if cfg.Retrain.Enabled {
		p.stream.Hooks.WantFeatures = true
		p.res = mlkit.NewReservoir(cfg.Retrain.cap(), cfg.Retrain.Seed)
	}
	if cfg.Alerts != nil {
		p.alertw = cfg.Alerts
		p.nameJSON = appendJSONString(nil, p.name)
		// Sized once for the flush threshold plus the line that crosses it:
		// the buffer never grows on the scoring path.
		p.alertBuf = make([]byte, 0, alertFlushBytes+1024)
		p.alertPrefix = make([]byte, 0, 128+len(p.nameJSON))
	}
	if cfg.ConnLog != nil {
		p.connw = cfg.ConnLog
		p.stream.Hooks.ConnsClosed = p.writeConnLog
	}
	lbl := []string{"pipeline", p.name}
	m := d.metrics
	p.mChunks = m.Counter("lumen_daemon_chunks_total", "Chunks scored, per pipeline.", lbl...)
	p.mPackets = m.Counter("lumen_daemon_packets_total", "Packets ingested, per pipeline.", lbl...)
	p.mVerdicts = m.Counter("lumen_daemon_verdicts_total", "Units scored, per pipeline.", lbl...)
	p.mAlerts = m.Counter("lumen_daemon_alerts_total", "Alert lines written, per pipeline.", lbl...)
	p.mPasses = m.Counter("lumen_daemon_passes_total", "RunStream passes, per pipeline.", lbl...)
	p.mReloads = m.Counter("lumen_daemon_reloads_total", "Completed reloads, per pipeline.", lbl...)
	p.mNonFinite = m.Counter("lumen_daemon_alert_nonfinite_scores_total", "Alert lines written without a score because it was NaN or ±Inf, per pipeline.", lbl...)
	p.mDrift = m.Counter("lumen_drift_events_total", "Drift-detector events observed, per pipeline.", lbl...)
	p.mState = m.Gauge("lumen_daemon_pipeline_state", "Lifecycle state (0 running, 1 draining, 2 stopped, 3 failed).", lbl...)
	p.mGen = m.Gauge("lumen_daemon_model_generation", "Active model generation, per pipeline.", lbl...)
	p.mShadowing = m.Gauge("lumen_daemon_swap_shadowing", "1 while a hot swap is shadow-scoring.", lbl...)
	p.mMaps = m.Gauge("lumen_mmap_open_mappings", "Process-wide live pcap memory mappings (refcounted; drops to baseline when every in-flight chunk is released).")
	p.mState.Set(float64(StateRunning))
	p.mGen.Set(float64(handle.Generation()))
	if fs, ok := cfg.Source.(*FeedSource); ok {
		fs.bindMetrics(m, p.name)
	}
	return p, nil
}

// Name returns the pipeline's registry name.
func (p *Pipe) Name() string { return p.name }

// Done returns a channel closed when the pipeline has fully stopped
// (conn-log written, sinks flushed).
func (p *Pipe) Done() <-chan struct{} { return p.done }

// run is the pipeline goroutine: one RunStream pass per loop iteration,
// looping only when a reload was requested.
func (p *Pipe) run() {
	defer close(p.done)
	for {
		err := p.pass()
		p.mu.Lock()
		if err != nil {
			p.runErr = err
			p.setStateLocked(StateFailed)
			p.mu.Unlock()
			break
		}
		if p.reloadPending && !p.stopReq {
			p.reloadPending = false
			p.mu.Unlock()
			if rerr := p.src.Reset(); rerr != nil {
				p.mu.Lock()
				p.runErr = fmt.Errorf("daemon: reload %q: %w", p.name, rerr)
				p.setStateLocked(StateFailed)
				p.mu.Unlock()
				break
			}
			p.reloads.Add(1)
			p.mReloads.Inc()
			continue
		}
		p.setStateLocked(StateStopped)
		p.mu.Unlock()
		break
	}
	// Nothing reads the source any more: a watch whose pass failed
	// mid-capture lets the file go, and a replayed capture is unmapped.
	if c, ok := p.src.(io.Closer); ok {
		c.Close()
	}
	p.finalize()
}

// pass runs one RunStream pass to its flushed end. A panic on this
// goroutine — in an ordered op, in model scoring (a swapped-in model that
// loads cleanly can still index past the pipeline's feature row), in the
// chunk hook — comes back as the pass's error, so one tenant's fault
// fails that pipeline (state failed, alert sink flushed, the conn-log
// ending at the last connections the pass handed on) instead of killing
// every pipeline in the process. The engine has already unwound by then:
// its stage goroutines are gone and every chunk is released. A panic on
// a staged pass's source or ops goroutine never reaches here; the engine
// turns it into the pass's error.
func (p *Pipe) pass() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: pipeline %q panicked in %s: %v", p.name, panicSite(), r)
		}
		// The next pass starts a conn-log section of its own.
		p.connLog = nil
		p.eng.Span = nil
		if p.span != nil {
			p.span.Set("chunks", p.eng.LastStream.Chunks)
			p.span.Set("pass", p.passes.Load())
			p.span.End()
			p.span = nil
		}
	}()
	p.passes.Add(1)
	p.mPasses.Inc()
	if p.tracer != nil {
		p.span = p.tracer.Start("pipeline:"+p.name, p.tid)
	}
	p.eng.Span = p.span
	// Hooked: every verdict, the flush's too, goes through afterChunk.
	_, err = p.eng.RunStream(p.src, core.ModeTest, p.stream)
	return err
}

// panicSite names the function that raised the panic being recovered:
// the first frame below the runtime's own panic machinery. Call it from
// the deferred function that called recover, while the panicking frames
// are still on the stack.
func panicSite() string {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
	panicking := false
	for {
		f, more := frames.Next()
		switch {
		case f.Function == "runtime.gopanic":
			panicking = true
		case panicking && !strings.HasPrefix(f.Function, "runtime."):
			return fmt.Sprintf("%s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)
		}
		if !more {
			return "unknown function"
		}
	}
}

// setStateLocked records the state transition; callers hold p.mu.
func (p *Pipe) setStateLocked(s State) {
	p.state = s
	p.mState.Set(float64(s))
}

// writeConnLog appends conns, the next connections of the pass in batch
// order, to the pass's conn-log section, whose header the pass's first
// call writes. It is the pass's ConnsClosed hook.
func (p *Pipe) writeConnLog(conns []*flow.Flow) error {
	if p.connLog == nil {
		p.connLog = flow.NewConnLogWriter(p.connw)
	}
	if err := p.connLog.Log(conns); err != nil {
		return fmt.Errorf("daemon: conn-log %q: %w", p.name, err)
	}
	return nil
}

// finalize flushes sinks and fails any control requests still queued. It
// runs exactly once, just before done closes.
func (p *Pipe) finalize() {
	if err := p.flushAlerts(); err != nil {
		p.recordErr(err)
	}
	p.mMaps.Set(float64(pcap.OpenMappings()))
	for {
		select {
		case m := <-p.ctrl:
			if m.reply != nil {
				m.reply <- ErrStopped
			}
		default:
			return
		}
	}
}

// recordErr keeps the first terminal error and flips the state to failed.
func (p *Pipe) recordErr(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.runErr == nil {
		p.runErr = err
		p.setStateLocked(StateFailed)
	}
}

// afterChunk is the core.StreamHooks.AfterChunk callback — the heart of
// the pipeline. It runs once per chunk, in stream order, on the scoring
// goroutine, with the chunk's verdicts final. In order: emit alerts,
// bump counters, apply queued control messages, and advance any
// in-progress swap. Because control messages are applied after this chunk's
// verdicts were written, every chunk is attributable to exactly one
// model generation. A flush update (a block of flows scored as they
// closed, between chunks, or the drain pass) only emits its alerts,
// under the generation that scored them, and feeds its drift events and
// features to the retrain hook.
func (p *Pipe) afterChunk(up core.ChunkUpdate) error {
	gen := p.handle.Generation()
	phase := "stream"
	if up.Flush {
		phase = "flush"
	}
	for _, res := range up.Results {
		if err := p.writeRows(res, up.Seq, gen, phase); err != nil {
			return err
		}
	}
	if err := p.flushAlerts(); err != nil {
		return err
	}
	if up.Flush {
		p.observeDrift(up)
		return nil
	}
	npkts := len(up.Views)
	if up.Seq == 0 {
		// The engine settled the pass's shape before pulling this chunk, and
		// hooked passes absorb on this goroutine, so LastStream is ours to
		// read here.
		ls := p.eng.LastStream
		shape := &StreamShape{Pipelined: ls.Pipelined, Depth: ls.Depth}
		p.mu.Lock()
		p.shape = shape
		p.mu.Unlock()
	}
	p.chunks.Add(1)
	p.packets.Add(int64(npkts))
	p.mChunks.Inc()
	p.mPackets.Add(uint64(npkts))
	p.mMaps.Set(float64(pcap.OpenMappings()))
	p.observeDrift(up)
	p.pumpCtrl()
	p.updateSwap()
	return nil
}

// writeRows emits an alert line for every row of res and counts the
// rows as verdicts. The batch shares one timestamp, read here; its lines
// reach the sink in whole-line writes — whenever the buffer passes
// alertFlushBytes, and otherwise at the caller's flushAlerts.
func (p *Pipe) writeRows(res *core.EvalResult, seq, gen int, phase string) error {
	n := max(len(res.Pred), len(res.Truth))
	p.verdicts.Add(int64(n))
	p.mVerdicts.Add(uint64(n))
	if p.alertw == nil {
		return nil
	}
	p.alertPrefix = appendAlertPrefix(p.alertPrefix[:0], time.Now(), p.nameJSON, seq, phase, res.Unit.String())
	wrote, nonFinite := 0, 0
	var err error
	for i := 0; i < n && err == nil; i++ {
		pred := 0
		if i < len(res.Pred) {
			pred = res.Pred[i]
		}
		if p.anomaliesOnly && pred != 1 {
			continue
		}
		var bad bool
		p.alertBuf, bad = appendAlertRow(p.alertBuf, p.alertPrefix, &p.scores, res, i, pred, gen)
		if bad {
			nonFinite++
		}
		wrote++
		if len(p.alertBuf) >= alertFlushBytes {
			err = p.flushAlerts()
		}
	}
	// Counted on the failing path too: earlier flushes of this batch
	// already reached the sink.
	p.alerts.Add(int64(wrote))
	p.mAlerts.Add(uint64(wrote))
	p.mNonFinite.Add(uint64(nonFinite))
	return err
}

// flushAlerts hands the buffered alert lines to the sink in one Write.
func (p *Pipe) flushAlerts() error {
	if len(p.alertBuf) == 0 {
		return nil
	}
	_, err := p.alertw.Write(p.alertBuf)
	p.alertBuf = p.alertBuf[:0]
	if err != nil {
		return fmt.Errorf("daemon: alert sink %q: %w", p.name, err)
	}
	return nil
}

// pumpCtrl applies every queued control message. It runs on the scoring
// goroutine between chunks, so model retargeting never races a chunk
// mid-score.
func (p *Pipe) pumpCtrl() {
	for {
		select {
		case m := <-p.ctrl:
			var err error
			switch m.kind {
			case ctrlSwap:
				err = p.handle.StartShadow(m.clf)
				if err == nil {
					p.swapOpts = m.opts
					p.mShadowing.Set(1)
					p.emitSwapEvent("swap:shadow_start", nil)
				}
			case ctrlPromote:
				err = p.decide(true, "operator")
			case ctrlRollback:
				err = p.decide(false, "operator")
			}
			if m.reply != nil {
				m.reply <- err
			}
		default:
			return
		}
	}
}

// updateSwap publishes the live shadow divergence and applies the
// automatic promote-or-rollback decision once enough chunks were
// shadow-scored.
func (p *Pipe) updateSwap() {
	if !p.handle.Shadowing() {
		return
	}
	st := p.handle.Stats()
	p.setDivergence(st)
	o := p.swapOpts
	if !o.AutoDecide {
		return
	}
	target := o.ShadowChunks
	if target <= 0 {
		target = 8
	}
	if st.Chunks < target {
		return
	}
	_ = p.decide(st.DisagreeFrac() <= o.MaxDisagree, "auto")
}

// decide finishes the in-progress swap: promote makes the candidate
// active (generation += 1), rollback discards it. Runs on the scoring
// goroutine only.
func (p *Pipe) decide(promote bool, by string) error {
	var st mlkit.SwapStats
	var err error
	outcome := "rolled_back"
	if promote {
		st, err = p.handle.Promote()
		outcome = "promoted"
	} else {
		st, err = p.handle.Rollback()
	}
	if err != nil {
		return err
	}
	gen := p.handle.Generation()
	rep := &SwapReport{
		Outcome:      outcome,
		By:           by,
		Generation:   gen,
		Chunks:       st.Chunks,
		Rows:         st.Rows,
		DisagreeFrac: st.DisagreeFrac(),
		ScoreMAD:     st.ScoreMAD(),
	}
	p.mu.Lock()
	p.lastSwap = rep
	p.mu.Unlock()
	p.swapOpts = SwapOptions{}
	p.setDivergence(st)
	p.mGen.Set(float64(gen))
	p.mShadowing.Set(0)
	p.metrics.Counter("lumen_daemon_swaps_total", "Finished hot-swap attempts.",
		"pipeline", p.name, "outcome", outcome).Inc()
	p.emitSwapEvent("swap:"+outcome, map[string]any{
		"by": by, "generation": gen,
		"chunks": st.Chunks, "rows": st.Rows,
		"disagree_frac": st.DisagreeFrac(), "score_mad": st.ScoreMAD(),
	})
	return nil
}

// setDivergence publishes a shadow tally as lumen_swap_divergence gauges.
func (p *Pipe) setDivergence(st mlkit.SwapStats) {
	g := func(stat string) *obs.Gauge {
		return p.metrics.Gauge("lumen_swap_divergence",
			"Shadow-scoring divergence between active and candidate model.",
			"pipeline", p.name, "stat", stat)
	}
	g("disagree_frac").Set(st.DisagreeFrac())
	g("score_mad").Set(st.ScoreMAD())
	g("shadow_chunks").Set(float64(st.Chunks))
	g("shadow_rows").Set(float64(st.Rows))
}

// emitSwapEvent records a zero-width swap marker on the pass span.
func (p *Pipe) emitSwapEvent(name string, attrs map[string]any) {
	if p.span != nil {
		now := time.Now()
		p.span.Emit(name, now, now, attrs)
	}
}

// control queues m and waits for the scoring goroutine to apply it at
// the next chunk boundary. On an idle source the wait extends until the
// next chunk arrives.
func (p *Pipe) control(m ctrlMsg) error {
	m.reply = make(chan error, 1)
	select {
	case p.ctrl <- m:
	case <-p.done:
		return ErrStopped
	}
	select {
	case err := <-m.reply:
		return err
	case <-p.done:
		return ErrStopped
	}
}

// Swap begins a hot swap: clf is attached as a shadow at the next chunk
// boundary and scored alongside the active model. With opts.AutoDecide
// the pipeline promotes or rolls back on its own; otherwise call Promote
// or Rollback. Fails while another swap is in progress.
func (p *Pipe) Swap(clf mlkit.Classifier, opts SwapOptions) error {
	if clf == nil {
		return errors.New("daemon: Swap: nil classifier")
	}
	return p.control(ctrlMsg{kind: ctrlSwap, clf: clf, opts: opts})
}

// SwapFromFile loads a persisted model (mlkit.LoadModel envelope) and
// starts a hot swap with it.
func (p *Pipe) SwapFromFile(path string, opts SwapOptions) error {
	clf, err := mlkit.LoadModel(path)
	if err != nil {
		return err
	}
	return p.Swap(clf, opts)
}

// Promote finishes the in-progress swap in the candidate's favor at the
// next chunk boundary.
func (p *Pipe) Promote() error { return p.control(ctrlMsg{kind: ctrlPromote}) }

// Rollback discards the in-progress swap's candidate at the next chunk
// boundary.
func (p *Pipe) Rollback() error { return p.control(ctrlMsg{kind: ctrlRollback}) }

// Reload asks the pipeline to finish the current pass (draining the
// source if it supports Drain) and start a fresh one with the source
// Reset — the rotate-and-rescan verb for replay sources. It returns once
// the reload is scheduled, not once the new pass starts.
func (p *Pipe) Reload() error {
	p.mu.Lock()
	if p.state != StateRunning || p.stopReq {
		p.mu.Unlock()
		return ErrStopped
	}
	p.reloadPending = true
	p.mu.Unlock()
	p.drainSource()
	return nil
}

// Drain gracefully stops the pipeline: the source stops producing, the
// packets already ingested are scored to completion, deferred verdicts
// and the conn-log are written, and sinks are flushed. Drain blocks
// until all of that finished and returns the pipeline's terminal error.
// It is idempotent — concurrent and repeated calls all wait for the same
// shutdown.
func (p *Pipe) Drain() error {
	p.mu.Lock()
	already := p.stopReq
	p.stopReq = true
	if p.state == StateRunning {
		p.setStateLocked(StateDraining)
	}
	p.mu.Unlock()
	if !already {
		p.drainSource()
	}
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runErr
}

// drainSource signals a drainable source to stop producing. Finite
// sources without Drain end on their own.
func (p *Pipe) drainSource() {
	if dr, ok := p.src.(Drainer); ok {
		dr.Drain()
	}
}

// Status snapshots the pipeline's observable state.
func (p *Pipe) Status() PipeStatus {
	p.mu.Lock()
	st := PipeStatus{
		Name:     p.name,
		State:    p.state.String(),
		LastSwap: p.lastSwap,
		Stream:   p.shape,
		Barrier:  p.barrier,
	}
	if p.runErr != nil {
		st.Error = p.runErr.Error()
	}
	p.mu.Unlock()
	st.Passes = p.passes.Load()
	st.Chunks = p.chunks.Load()
	st.Packets = p.packets.Load()
	st.Verdicts = p.verdicts.Load()
	st.Alerts = p.alerts.Load()
	st.Reloads = p.reloads.Load()
	if dm, ok := p.src.(interface{ DecodeMode() string }); ok {
		st.DecodeMode = dm.DecodeMode()
	}
	if fs, ok := p.src.(*FeedSource); ok {
		st.FeedConnErrors = fs.ConnErrors()
	}
	st.ModelGeneration = p.handle.Generation()
	st.Shadowing = p.handle.Shadowing()
	if st.Shadowing {
		s := p.handle.Stats()
		st.ShadowChunks = s.Chunks
		st.ShadowDisagree = s.DisagreeFrac()
		st.ShadowScoreMAD = s.ScoreMAD()
	}
	return st
}
