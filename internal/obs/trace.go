package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects finished spans. It is safe for concurrent use by many
// goroutines; a nil Tracer is the disabled state and yields nil Spans.
type Tracer struct {
	base   time.Time
	nextID atomic.Int64
	// keep bounds how many spans the tracer holds, 0 for no bound.
	keep int

	mu    sync.Mutex
	spans []SpanRecord
	// Once a bounded tracer holds keep spans, spans is a ring: oldest is
	// the index of its oldest span, which the next one replaces, and
	// dropped counts the spans replaced so far.
	oldest  int
	dropped int64
}

// NewTracer returns an enabled tracer whose time origin is "now": span
// timestamps are recorded relative to this instant. It keeps every span,
// for a run that ends.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now()}
}

// NewBoundedTracer returns an enabled tracer that keeps only the keep
// most recent spans (keep >= 1), for a process that runs indefinitely:
// each span past the bound replaces the oldest, and Dropped counts them.
func NewBoundedTracer(keep int) *Tracer {
	return &Tracer{base: time.Now(), keep: max(keep, 1)}
}

// Start opens a root span on track tid. Track 0 is the main track;
// per-worker spans conventionally use tid = worker index + 1 so that
// Perfetto renders one lane per worker.
func (t *Tracer) Start(name string, tid int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: t.nextID.Add(1), tid: tid, name: name, start: time.Now()}
}

// Spans returns a snapshot of the spans finished so far that the tracer
// still holds, in End order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(append([]SpanRecord(nil), t.spans[t.oldest:]...), t.spans[:t.oldest]...)
}

// Dropped reports how many finished spans a bounded tracer has let go
// to stay within its bound: 0 on a tracer that keeps every span.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// record adds a finished span, in place of the oldest when a bounded
// tracer is full.
func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	if t.keep > 0 && len(t.spans) == t.keep {
		t.spans[t.oldest] = r
		t.oldest = (t.oldest + 1) % t.keep
		t.dropped++
	} else {
		t.spans = append(t.spans, r)
	}
	t.mu.Unlock()
}

// SpanRecord is one finished span, as exported by WriteJSONL. Timestamps
// are nanoseconds relative to the tracer's creation.
type SpanRecord struct {
	// ID uniquely identifies the span within its tracer.
	ID int64 `json:"id"`
	// Parent is the enclosing span's ID (0 for root spans).
	Parent int64 `json:"parent,omitempty"`
	// TID is the track the span renders on (0 = main, n = worker n-1).
	TID int `json:"tid"`
	// Name is the span name, e.g. "op:flow_assemble".
	Name string `json:"name"`
	// StartNS is the span's start, in ns since the tracer was created.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's duration in ns.
	DurNS int64 `json:"dur_ns"`
	// Attrs carries the attributes attached with Span.Set.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Span is one in-progress region of work. Spans form a tree: Child opens
// a nested span, End finishes this one and publishes it to the tracer.
//
// A Span's mutating methods (Set, End) must be called from the goroutine
// that owns it, but Child/ChildOn/Emit may be called concurrently from
// many goroutines — a parent shared by a worker pool is fine. All methods
// are no-ops on a nil receiver.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	tid    int
	name   string
	start  time.Time
	attrs  map[string]any
	ended  bool
}

// Child opens a sub-span on the same track.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildOn(name, s.tid)
}

// ChildOn opens a sub-span on track tid (used to fan run spans out to
// per-worker tracks).
func (s *Span) ChildOn(name string, tid int) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, id: s.t.nextID.Add(1), parent: s.id, tid: tid, name: name, start: time.Now()}
}

// TID reports the track this span renders on, so callers can derive
// adjacent tracks for fan-out children (0 for a nil span).
func (s *Span) TID() int {
	if s == nil {
		return 0
	}
	return s.tid
}

// Set attaches an attribute, overwriting any earlier value for key.
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
}

// End finishes the span and publishes it to the tracer. Calling End more
// than once records only the first.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	now := time.Now()
	s.t.record(SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		TID:     s.tid,
		Name:    s.name,
		StartNS: s.start.Sub(s.t.base).Nanoseconds(),
		DurNS:   now.Sub(s.start).Nanoseconds(),
		Attrs:   s.attrs,
	})
}

// Emit records an already-completed child span with explicit start and
// end times — the retroactive form used for model-fit epochs, where the
// epoch boundary is only known after the fact. attrs may be nil.
func (s *Span) Emit(name string, start, end time.Time, attrs map[string]any) {
	if s == nil {
		return
	}
	s.t.record(SpanRecord{
		ID:      s.t.nextID.Add(1),
		Parent:  s.id,
		TID:     s.tid,
		Name:    name,
		StartNS: start.Sub(s.t.base).Nanoseconds(),
		DurNS:   end.Sub(start).Nanoseconds(),
		Attrs:   attrs,
	})
}
