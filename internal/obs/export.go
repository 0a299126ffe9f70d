package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event format ("X" =
// complete event, "M" = metadata). Timestamps and durations are in
// microseconds; fractional values are allowed and preserve sub-µs ops.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavour of the trace_event format, the
// one Perfetto and chrome://tracing open directly.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace exports every finished span the tracer holds in the
// Chrome trace_event JSON format. Open the file in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing: spans sharing a track
// (tid) nest by their time ranges, and span attributes appear under
// "args". A bounded tracer that has dropped spans says how many under
// "otherData" as "dropped_spans".
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans, dropped := t.Spans(), t.Dropped()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })

	events := make([]chromeEvent, 0, len(spans)+4)
	tids := map[int]bool{}
	for _, s := range spans {
		tids[s.TID] = true
		args := make(map[string]any, len(s.Attrs)+2)
		for k, v := range s.Attrs {
			args[k] = v
		}
		args["span_id"] = s.ID
		if s.Parent != 0 {
			args["parent_id"] = s.Parent
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   float64(s.StartNS) / 1e3,
			Dur:  float64(s.DurNS) / 1e3,
			PID:  1,
			TID:  s.TID,
			Args: args,
		})
	}
	// Name the tracks so Perfetto shows "main" / "worker N" lanes.
	order := make([]int, 0, len(tids))
	for tid := range tids {
		order = append(order, tid)
	}
	sort.Ints(order)
	meta := make([]chromeEvent, 0, len(order))
	for _, tid := range order {
		name := "main"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", tid-1)
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	ct := chromeTrace{TraceEvents: append(meta, events...), DisplayTimeUnit: "ms"}
	if dropped > 0 {
		ct.OtherData = map[string]any{"dropped_spans": dropped}
	}
	return json.NewEncoder(w).Encode(ct)
}

// WriteJSONL exports every finished span as one JSON object per line
// (the SpanRecord schema), in span start order — the flat form for jq,
// spreadsheets and ad-hoc scripts.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeTraceFile writes WriteChromeTrace output to path.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	return writeFile(path, t.WriteChromeTrace)
}

// WriteJSONLFile writes WriteJSONL output to path.
func (t *Tracer) WriteJSONLFile(path string) error {
	return writeFile(path, t.WriteJSONL)
}

// writeFile creates path and streams fn into it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
