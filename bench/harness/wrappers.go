package harness

import (
	"fmt"
	"io"
	"time"

	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
)

// The engine and the daemon pick a pass's plan from the optional
// interfaces its source implements (dataset.ViewSource, dataset.Recycler,
// daemon.Drainer, DecodeMode), so a wrapper must expose exactly the
// inner source's set — one more or one fewer changes the plan it is
// there to measure. Each ingest path therefore gets its own wrapper type
// composed from the capability pieces below. None of the workloads'
// sources is backed by a materialized dataset, so the labeled-source
// capability has no piece.

// tracedNext is the part every source has: Meta, Next, Reset, Err.
type tracedNext struct {
	inner interface {
		dataset.Source
		Err() error
	}
	rec *Recorder
	// drainAt, when positive, drains the inner source once that many
	// packets were delivered — how an isolated RunStream (no daemon to
	// poll) ends a watch or a feed.
	drainAt int
	seen    int
}

func (s *tracedNext) Meta() dataset.SourceMeta { return s.inner.Meta() }
func (s *tracedNext) Reset() error             { return s.inner.Reset() }
func (s *tracedNext) Err() error               { return s.inner.Err() }

func (s *tracedNext) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	t0 := time.Now()
	s.rec.NextStart(t0)
	ck, ok := s.inner.Next(maxRows, maxBytes)
	t1 := time.Now()
	s.rec.Next(t0, t1, ok, ck.Len(), ck.WireBytes())
	s.seen += ck.Len()
	if s.drainAt > 0 && s.seen >= s.drainAt {
		s.inner.(daemon.Drainer).Drain()
		s.drainAt = 0
	}
	return ck, ok
}

// tracedViews forwards the lazy-view capabilities of file-backed sources
// and remembers the decode hint the plan asked for.
type tracedViews struct {
	inner interface {
		dataset.ViewSource
		dataset.Recycler
		DecodeMode() string
	}
	rec  *Recorder
	lazy bool
	hint netpkt.DecodeHint
}

func (s *tracedViews) ConfigureViews(on bool, hint netpkt.DecodeHint) bool {
	s.lazy, s.hint = on, hint
	return s.inner.ConfigureViews(on, hint)
}

func (s *tracedViews) DecodeMode() string { return s.inner.DecodeMode() }

func (s *tracedViews) Recycle(ck dataset.Chunk) {
	t0 := time.Now()
	s.inner.Recycle(ck)
	s.rec.Recycle(t0, time.Now())
}

// tracedDrain forwards graceful drain.
type tracedDrain struct{ inner daemon.Drainer }

func (s tracedDrain) Drain() { s.inner.Drain() }

// The three wrapper shapes, one per ingest path.
type (
	tracedFileSource struct {
		*tracedNext
		*tracedViews
	}
	tracedWatchSource struct {
		*tracedNext
		*tracedViews
		tracedDrain
	}
	tracedFeedSource struct {
		*tracedNext
		tracedDrain
	}
)

// traceSource wraps one of the three ingest sources. The second result
// exposes the plan's decode hint for file-backed sources (nil for feeds).
func traceSource(src dataset.Source, rec *Recorder, drainAt int) (dataset.Source, *tracedViews, error) {
	switch s := src.(type) {
	case *dataset.PcapSource:
		v := &tracedViews{inner: s, rec: rec}
		return tracedFileSource{&tracedNext{inner: s, rec: rec}, v}, v, nil
	case *daemon.DirSource:
		v := &tracedViews{inner: s, rec: rec}
		return tracedWatchSource{&tracedNext{inner: s, rec: rec, drainAt: drainAt}, v, tracedDrain{s}}, v, nil
	case *daemon.FeedSource:
		return tracedFeedSource{&tracedNext{inner: s, rec: rec, drainAt: drainAt}, tracedDrain{s}}, nil, nil
	}
	return nil, nil, fmt.Errorf("bench: no traced wrapper for source %T", src)
}

// tracedClf times a classifier's scoring calls. It deliberately does not
// offer Proba: traceClassifier adds that only when the model has it, so
// the scoring op scores the same way with and without the wrapper.
type tracedClf struct {
	inner mlkit.Classifier
	rec   *Recorder
}

func (c *tracedClf) Fit(X [][]float64, y []int) error { return c.inner.Fit(X, y) }

func (c *tracedClf) Predict(X [][]float64) []int {
	t0 := time.Now()
	out := c.inner.Predict(X)
	c.rec.Sink(SpanPredict, t0, time.Now(), len(X), 0)
	return out
}

type tracedProbClf struct {
	*tracedClf
	prob mlkit.ProbClassifier
}

func (c tracedProbClf) Proba(X [][]float64) []float64 {
	t0 := time.Now()
	out := c.prob.Proba(X)
	c.rec.Sink(SpanProba, t0, time.Now(), len(X), 0)
	return out
}

// traceClassifier wraps a fitted model for Engine.ReplaceModel.
func traceClassifier(clf mlkit.Classifier, rec *Recorder) mlkit.Classifier {
	base := &tracedClf{inner: clf, rec: rec}
	if p, ok := clf.(mlkit.ProbClassifier); ok {
		return tracedProbClf{base, p}
	}
	return base
}

// tracedWriter times the daemon's writes into an alert or conn-log sink.
type tracedWriter struct {
	w    io.Writer
	rec  *Recorder
	name string
}

func (t tracedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.rec.Sink(t.name, t0, time.Now(), 0, n)
	return n, err
}
