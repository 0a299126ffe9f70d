package harness

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names recorded at the layer boundaries.
const (
	SpanPass      = "daemon.pass"
	SpanChunk     = "chunk"
	SpanNext      = "dataset.next"
	SpanRecycle   = "dataset.recycle"
	SpanPredict   = "mlkit.predict"
	SpanProba     = "mlkit.proba"
	SpanAlertW    = "daemon.alert_write"
	SpanConnLogW  = "daemon.connlog_write"
	noParent      = -1
	spansPerChunk = 8
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent indexes the span
// that caused this one (-1 for a pass root); Pass groups the spans of
// one daemon pass.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	// Rows and Bytes are the counts carried across the boundary (packets
	// and wire bytes of a chunk, rows scored, bytes written).
	Rows  int `json:"rows,omitempty"`
	Bytes int `json:"bytes,omitempty"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory. The wrappers call it from the source
// goroutine (staged runs) and the scoring goroutine, so it locks.
//
// Chunks complete in the order they were read, so the open chunk spans
// form a queue: a scoring or alert-write span belongs to the oldest
// open chunk, and the chunk closes when the pipeline lets go of it — it
// recycles it or, for sources that do not recycle, asks for the next
// one. That is right after the alert flush that completes the chunk, so
// a chunk span runs from its Next return to all its verdicts written.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	pass  int // current pass number, 0 before the first
	root  int // index of the current pass span
	open  []int
	// recycles is false for sources without dataset.Recycler: their
	// chunks close on the next Next call.
	recycles bool
}

// NewRecorder returns an empty recorder sized for about chunks chunks.
func NewRecorder(chunks int) *Recorder {
	return &Recorder{epoch: time.Now(), root: noParent, spans: make([]Span, 0, chunks*spansPerChunk)}
}

func (r *Recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// BeginPass opens the root span of one daemon pass.
func (r *Recorder) BeginPass(t time.Time, recycles bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pass++
	r.recycles = recycles
	r.open = r.open[:0]
	r.root = len(r.spans)
	r.spans = append(r.spans, Span{Name: SpanPass, Start: r.ns(t), End: r.ns(t), Parent: noParent, Pass: r.pass})
}

// closeOldest ends the oldest open chunk span at t; callers hold r.mu.
func (r *Recorder) closeOldest(t time.Time) {
	if len(r.open) > 0 {
		r.spans[r.open[0]].End = r.ns(t)
		r.open = r.open[1:]
	}
}

// EndPass closes the pass span (and any chunk still open).
func (r *Recorder) EndPass(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.open) > 0 {
		r.closeOldest(t)
	}
	r.spans[r.root].End = r.ns(t)
	r.root = noParent
}

// NextStart marks the pipeline asking for a chunk: on a source that
// does not recycle, that is when the previous chunk is done.
func (r *Recorder) NextStart(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.recycles {
		r.closeOldest(t)
	}
}

// Next records one Source.Next call and, when it delivered a chunk,
// opens that chunk's span.
func (r *Recorder) Next(t0, t1 time.Time, ok bool, rows, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: SpanNext, Start: r.ns(t0), End: r.ns(t1), Parent: r.root, Pass: r.pass, Rows: rows, Bytes: bytes})
	if ok {
		r.open = append(r.open, len(r.spans))
		r.spans = append(r.spans, Span{Name: SpanChunk, Start: r.ns(t1), End: r.ns(t1), Parent: r.root, Pass: r.pass, Rows: rows, Bytes: bytes})
	}
}

// Recycle records one Recycler.Recycle call and closes the oldest chunk.
func (r *Recorder) Recycle(t0, t1 time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeOldest(t0)
	r.spans = append(r.spans, Span{Name: SpanRecycle, Start: r.ns(t0), End: r.ns(t1), Parent: r.root, Pass: r.pass})
}

// Sink records a span on the scoring goroutine (scoring, alert or
// conn-log write) under the oldest open chunk, or under the pass when
// none is open (drain-time flush verdicts, the conn-log).
func (r *Recorder) Sink(name string, t0, t1 time.Time, rows, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := r.root
	if len(r.open) > 0 {
		parent = r.open[0]
	}
	r.spans = append(r.spans, Span{Name: name, Start: r.ns(t0), End: r.ns(t1), Parent: parent, Pass: r.pass, Rows: rows, Bytes: bytes})
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// WriteJSON writes the spans as one JSON array.
func (r *Recorder) WriteJSON(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children on another goroutine may
// overlap each other (a staged run reads ahead while it scores), so the
// covered part is the union of the children's intervals, clipped to the
// parent.
func SelfTimes(spans []Span) []int64 {
	kids := make(map[int][]int, len(spans)/4)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur()
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		edge := s.Start // everything before edge is already counted
		for _, k := range ks {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				self[i] -= to - from
				edge = to
			}
		}
	}
	return self
}

// Percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a product like 1000×99.9/100 = 999.0000000000001
	// from rounding up a rank.
	rank := int(math.Ceil(float64(len(sorted))*p/100-1e-9)) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// SupportedTail returns the highest of the reported percentiles (50,
// 90, 99, 99.9) that still has at least ten of n samples beyond it; 0
// when even the median does not.
func SupportedTail(n int) float64 {
	best := 0.0
	// A percentile leaves one sample in beyond past it.
	for _, t := range []struct {
		p      float64
		beyond int
	}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}} {
		if n/t.beyond >= 10 {
			best = t.p
		}
	}
	return best
}

// median returns the median of xs (mean of the middle pair for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
