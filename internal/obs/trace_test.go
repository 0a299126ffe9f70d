package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("suite", 0)
	run := root.Child("run")
	op := run.Child("op:x")
	op.Set("rows_out", 42)
	op.Set("cached", true)
	op.End()
	run.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["run"].Parent != byName["suite"].ID {
		t.Errorf("run parent = %d, want suite id %d", byName["run"].Parent, byName["suite"].ID)
	}
	if byName["op:x"].Parent != byName["run"].ID {
		t.Errorf("op parent = %d, want run id %d", byName["op:x"].Parent, byName["run"].ID)
	}
	if byName["suite"].Parent != 0 {
		t.Errorf("suite parent = %d, want 0", byName["suite"].Parent)
	}
	if got := byName["op:x"].Attrs["rows_out"]; got != 42 {
		t.Errorf("rows_out attr = %v, want 42", got)
	}
	// Children are contained in their parents' time ranges.
	for _, pair := range [][2]string{{"suite", "run"}, {"run", "op:x"}} {
		p, c := byName[pair[0]], byName[pair[1]]
		if c.StartNS < p.StartNS || c.StartNS+c.DurNS > p.StartNS+p.DurNS {
			t.Errorf("span %s [%d,%d] not nested in %s [%d,%d]",
				pair[1], c.StartNS, c.StartNS+c.DurNS, pair[0], p.StartNS, p.StartNS+p.DurNS)
		}
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root", 0)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.ChildOn("work", w+1)
				sp.Set("worker", w)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	spans := tr.Spans()
	if len(spans) != workers*50+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*50+1)
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
		if s.Name == "work" && s.Parent == 0 {
			t.Fatal("work span lost its parent")
		}
	}
}

func TestEmit(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("train", 0)
	start := time.Now()
	end := start.Add(5 * time.Millisecond)
	root.Emit("epoch:mlp", start, end, map[string]any{"epoch": 0, "loss": 0.5})
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	ep := spans[0]
	if ep.Name != "epoch:mlp" || ep.Parent == 0 || ep.DurNS != (5*time.Millisecond).Nanoseconds() {
		t.Errorf("unexpected emitted span %+v", ep)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("x", 0)
	s.End()
	s.End()
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("got %d spans after double End, want 1", n)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("suite", 0)
	run := root.ChildOn("run", 2)
	run.Set("alg", "A07")
	run.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var x, m int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			x++
			if e.PID != 1 {
				t.Errorf("event %q pid = %d, want 1", e.Name, e.PID)
			}
		case "M":
			m++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if x != 2 {
		t.Errorf("got %d complete events, want 2", x)
	}
	if m != 2 { // tracks 0 and 2
		t.Errorf("got %d metadata events, want 2", m)
	}
	for _, e := range out.TraceEvents {
		if e.Name == "run" {
			if e.TID != 2 {
				t.Errorf("run tid = %d, want 2", e.TID)
			}
			if e.Args["alg"] != "A07" {
				t.Errorf("run args = %v", e.Args)
			}
			if _, ok := e.Args["parent_id"]; !ok {
				t.Error("run event lost parent_id")
			}
		}
	}
}

func TestJSONLExport(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("a", 0)
	a.Child("b").End()
	a.End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines+1, err)
		}
		if rec.Name == "" || rec.ID == 0 {
			t.Errorf("incomplete record %+v", rec)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d JSONL lines, want 2", lines)
	}
}

func TestDisabledTracerIsNilSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", 0)
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All of these must be no-ops, not panics.
	s.Set("k", "v")
	c := s.Child("y")
	c.ChildOn("z", 1).End()
	s.Emit("e", time.Now(), time.Now(), nil)
	s.End()
	if tr.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer JSONL: err=%v len=%d", err, buf.Len())
	}
}

func TestDisabledObsAllocs(t *testing.T) {
	var s *Span
	var m *Metrics
	allocs := testing.AllocsPerRun(1000, func() {
		sp := s.Child("op")
		sp.Set("rows", 1)
		sp.End()
		m.Counter("c_total", "help").Inc()
		m.Gauge("g", "help").Set(1)
		m.Histogram("h", "help", nil).Observe(0.1)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs allocated %.1f times per op, want 0", allocs)
	}
}

func TestSpanNamePropagatesToExport(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("op:flow_assemble", 0)
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"op:flow_assemble"`) {
		t.Fatal("span name missing from chrome export")
	}
}

// TestBoundedTracerKeepsTheMostRecent: past its bound a tracer replaces
// its oldest span with each new one, so Spans holds the latest keep in
// End order, Dropped counts the rest, and the Chrome export says how
// many went; an unbounded tracer drops nothing and says nothing.
func TestBoundedTracerKeepsTheMostRecent(t *testing.T) {
	tr := NewBoundedTracer(3)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		tr.Start(name, 0).End()
	}
	var got []string
	for _, s := range tr.Spans() {
		got = append(got, s.Name)
	}
	if strings.Join(got, "") != "cde" || tr.Dropped() != 2 {
		t.Fatalf("bounded tracer holds %v and dropped %d, want [c d e] and 2", got, tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		OtherData map[string]float64 `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil || ct.OtherData["dropped_spans"] != 2 {
		t.Fatalf("chrome trace otherData = %v (%v), want dropped_spans 2", ct.OtherData, err)
	}
	whole := NewTracer()
	whole.Start("a", 0).End()
	buf.Reset()
	if err := whole.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if whole.Dropped() != 0 || strings.Contains(buf.String(), "otherData") {
		t.Fatalf("unbounded tracer dropped %d spans or reported drops: %s", whole.Dropped(), buf.String())
	}
}
