package daemon

import (
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// TestBoundedTracerSoak: a daemon whose tracer is bounded holds no more
// spans than the bound however many passes it runs. A thousand reload
// passes of a small replay, each adding its pipeline, chunk and op
// spans, leave at most the bound in Spans, and the drop count, which
// /trace reports, keeps rising. The replay waits an hour before each
// chunk, so every pass runs until its reload drains it.
func TestBoundedTracerSoak(t *testing.T) {
	const keep, passes = 64, 1000
	src := NewReplaySource(dataset.NewSliceSource(tinyTrace(8, time.Millisecond)), 0, time.Hour)
	tr := obs.NewBoundedTracer(keep)
	d := New(Config{Tracer: tr})
	p, err := d.Start(PipeConfig{
		Name:   "soak",
		Engine: trainedEngine(t, testDS(t)),
		Source: src,
		Stream: core.StreamConfig{ChunkRows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var half int64
	for i := 1; i < passes; i++ {
		if err := p.Reload(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "reload pass", func() bool { return p.Status().Reloads == int64(i) })
		if i == passes/2 {
			half = tr.Dropped()
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := p.Status(); st.Passes != passes {
		t.Fatalf("ran %d passes, want %d", st.Passes, passes)
	}
	if n, dropped := len(tr.Spans()), tr.Dropped(); n > keep || half == 0 || dropped <= half {
		t.Fatalf("tracer holds %d spans (bound %d), dropped %d by pass %d and %d by the end", n, keep, half, passes/2, dropped)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if got := rec.Header().Get("X-Lumen-Dropped-Spans"); got != strconv.FormatInt(tr.Dropped(), 10) {
		t.Fatalf("/trace reports %q dropped spans, the tracer %d", got, tr.Dropped())
	}
}
