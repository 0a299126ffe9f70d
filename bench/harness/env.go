package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// Reference is what every pass must reproduce: the counts of the plain
// sequential Engine.RunStream result over the same capture, and the
// conn-log flow.WriteConnLog renders for flow.Connections of the trace.
type Reference struct {
	Verdicts, Alerts int64
	ConnLines        int64
	ConnDigest       [sha256.Size]byte
}

// Env is one completed set-up: the capture on disk, the trained engine
// and the reference result. It holds no decoded trace.
type Env struct {
	W    Workload
	Seed int64
	Cap  *Capture
	Eng  *core.Engine
	// Model is the bare fitted classifier; every pass reinstalls it (or
	// its traced wrapper), so each daemon.Start sees the same engine.
	Model mlkit.Classifier
	Ref   Reference
	// Hint is the decode depth the plan asks a file source for.
	Hint netpkt.DecodeHint
	// Took is the set-up's duration, warm-up passes included.
	Took        time.Duration
	dir         string
	mapBaseline int64
}

// Setup generates the workload's trace from the seed, writes the
// capture under a fresh directory in parent, trains the engine on the
// base trace, computes the reference, verifies one daemon pass against
// it row by row, and runs one more warm-up pass. The generated trace is
// released before any pass runs: a harness-held decoded trace would
// inflate the heap the passes are measured against.
func Setup(w Workload, seed int64, parent string) (*Env, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(parent, w.Name+"-*")
	if err != nil {
		return nil, err
	}
	e := &Env{W: w, Seed: seed, dir: dir, mapBaseline: pcap.OpenMappings()}
	if err := e.build(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.Took = time.Since(start)
	return e, nil
}

// Close removes the set-up's files.
func (e *Env) Close() error { return os.RemoveAll(e.dir) }

func (e *Env) build() error {
	ds, err := generate(e.W, e.Seed)
	if err != nil {
		return err
	}
	if e.Cap, err = writeCapture(e.W, ds, e.dir); err != nil {
		return err
	}
	pl, err := e.W.Pipeline()
	if err != nil {
		return err
	}
	e.Eng = core.NewEngine(pl)
	e.Eng.Seed = e.Seed
	if err := e.Eng.Train(ds); err != nil {
		return err
	}
	ds = nil
	runtime.GC()
	model, ok := e.Eng.TrainedModel()
	if !ok {
		return fmt.Errorf("bench: pipeline %q has no trained model", pl.Name)
	}
	e.Model = model

	ref, err := e.reference()
	if err != nil {
		return err
	}
	if err := e.referenceConnLog(); err != nil {
		return err
	}
	// Warm-up pass one doubles as the verification pass.
	ac := &alertChecker{ref: ref, anomaliesOnly: e.W.AnomaliesOnly}
	connGot := sha256.New()
	if _, err := e.RunPass(PassOpts{AlertTee: ac, ConnTee: connGot}); err != nil {
		return err
	}
	if err := ac.finish(); err != nil {
		return err
	}
	if e.W.ConnLog && !bytes.Equal(connGot.Sum(nil), e.Ref.ConnDigest[:]) {
		return fmt.Errorf("bench: conn-log differs from flow.WriteConnLog over flow.Connections of the trace")
	}
	ref, ac = nil, nil
	runtime.GC()
	_, err = e.RunPass(PassOpts{})
	return err
}

// reference runs the plain sequential Engine.RunStream — no daemon, no
// hooks — over the capture and records its counts.
func (e *Env) reference() (*core.EvalResult, error) {
	src, release, err := e.openFile()
	if err != nil {
		return nil, err
	}
	defer release()
	spy := &hintSpy{PcapSource: src}
	res, err := e.Eng.RunStream(spy, core.ModeTest, core.StreamConfig{ChunkRows: ChunkRows})
	e.Hint = spy.hint
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("bench: reference run produced no verdicts")
	}
	e.Ref.Verdicts = int64(len(res.Pred))
	e.Ref.Alerts = e.Ref.Verdicts
	if e.W.AnomaliesOnly {
		e.Ref.Alerts = 0
		for _, p := range res.Pred {
			if p == 1 {
				e.Ref.Alerts++
			}
		}
	}
	return res, nil
}

// hintSpy notes the decode hint a plan configures. Embedding promotes
// every other method, so the source's capabilities are unchanged.
type hintSpy struct {
	*dataset.PcapSource
	hint netpkt.DecodeHint
}

func (s *hintSpy) ConfigureViews(on bool, hint netpkt.DecodeHint) bool {
	s.hint = hint
	return s.PcapSource.ConfigureViews(on, hint)
}

// referenceConnLog renders the conn-log of the eagerly decoded trace.
func (e *Env) referenceConnLog() error {
	if !e.W.ConnLog {
		return nil
	}
	f, err := os.Open(e.Cap.File)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	pkts, err := r.ReadAll()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := flow.WriteConnLog(&buf, flow.Connections(pkts, flow.Options{})); err != nil {
		return err
	}
	e.Ref.ConnLines = int64(bytes.Count(buf.Bytes(), []byte{'\n'}))
	e.Ref.ConnDigest = sha256.Sum256(buf.Bytes())
	return nil
}

// lineSplitter is a writer that hands every complete line to its owner.
// The daemon flushes at arbitrary byte boundaries, so it carries the
// partial line between writes.
type lineSplitter struct {
	partial []byte
}

func (s *lineSplitter) split(p []byte, line func([]byte)) {
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			return
		}
		s.partial = append(s.partial, p[:i]...)
		line(s.partial)
		s.partial = s.partial[:0]
		p = p[i+1:]
	}
}

// alertChecker is an alert sink that parses every JSONL line as it is
// written and compares it with the reference row it must report.
type alertChecker struct {
	lineSplitter
	ref           *core.EvalResult
	anomaliesOnly bool
	row           int // next reference row
	lines         int
	err           error // the first mismatch
}

func (c *alertChecker) Write(p []byte) (int, error) {
	c.split(p, func(line []byte) {
		if c.err == nil {
			c.err = c.check(line)
		}
	})
	return len(p), nil
}

func (c *alertChecker) check(line []byte) error {
	var a struct {
		Index *int   `json:"index"`
		Pred  *int   `json:"pred"`
		Unit  string `json:"unit"`
		Phase string `json:"phase"`
	}
	if err := json.Unmarshal(line, &a); err != nil {
		return fmt.Errorf("bench: alert line %d: %w", c.lines, err)
	}
	if a.Index == nil || a.Pred == nil {
		return fmt.Errorf("bench: alert line %d lacks index or pred: %s", c.lines, line)
	}
	ref := c.ref
	for c.anomaliesOnly && c.row < len(ref.Pred) && ref.Pred[c.row] != 1 {
		c.row++
	}
	if c.row >= len(ref.Pred) {
		return fmt.Errorf("bench: alert line %d is beyond the reference's %d rows", c.lines, len(ref.Pred))
	}
	wantIdx := -1
	if c.row < len(ref.UnitIdx) {
		wantIdx = ref.UnitIdx[c.row]
	}
	// Packet verdicts stream chunk by chunk; coarser units only exist at
	// drain and are written in the flush phase.
	wantPhase := "stream"
	if ref.Unit.String() != "packet" {
		wantPhase = "flush"
	}
	if *a.Index != wantIdx || *a.Pred != ref.Pred[c.row] || a.Unit != ref.Unit.String() || a.Phase != wantPhase {
		return fmt.Errorf("bench: alert line %d = {index %d pred %d unit %s phase %s}, reference row %d = {index %d pred %d unit %s phase %s}",
			c.lines, *a.Index, *a.Pred, a.Unit, a.Phase, c.row, wantIdx, ref.Pred[c.row], ref.Unit, wantPhase)
	}
	c.row++
	c.lines++
	return nil
}

// finish reports the first mismatch, or rows the pass never reported.
func (c *alertChecker) finish() error {
	if c.err != nil {
		return c.err
	}
	for c.anomaliesOnly && c.row < len(c.ref.Pred) && c.ref.Pred[c.row] != 1 {
		c.row++
	}
	if c.row != len(c.ref.Pred) || len(c.partial) > 0 {
		return fmt.Errorf("bench: alert sink ended at reference row %d of %d (%d bytes of a partial line)", c.row, len(c.ref.Pred), len(c.partial))
	}
	return nil
}
