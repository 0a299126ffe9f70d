package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/obs"
)

// TestBlockedFlushMatchesRefRun: a test-mode flow pass over more than two
// blocks of closed flows, the last one partial, featurizes, normalizes and
// scores them block by block, and its rows, unit indices and conn-log
// equal the batch executor's, unhooked and hooked, at depth 0 and staged.
func TestBlockedFlushMatchesRefRun(t *testing.T) {
	spec, _ := dataset.Get("F3")
	ds := spec.Generate(10)
	conns := flow.Connections(ds.Packets, flow.Options{})
	if n := len(conns); n <= 2*flushBlock || n%flushBlock == 0 {
		t.Fatalf("fixture: %d connections, want more than two blocks of %d and a partial last one", n, flushBlock)
	}
	var want bytes.Buffer
	if err := flow.WriteConnLog(&want, conns); err != nil {
		t.Fatal(err)
	}
	p := flowPipeline("decision_tree", map[string]any{"max_depth": 6})
	ref := batchRun(t, p, ds)

	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []StreamConfig{{ChunkRows: 512}, {ChunkRows: 512, PipelineDepth: 2}} {
		r, err := newStreamExec(eng, dataset.NewSliceSource(ds), ModeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if blocked := r.flushBlocks(); !slices.Equal(blocked, []bool{false, true, true, false, true}) {
			t.Fatalf("flush blocks ops %v; want flow_features, normalize and train", blocked)
		}

		tr := obs.NewTracer()
		eng.Span = tr.Start("run", 0)
		res, err := eng.TestStream(ds, cfg)
		eng.Span.End()
		eng.Span = nil
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, ref, res, "unhooked blocked flush")
		spans := 0
		for _, s := range tr.Spans() {
			if s.Name == "op:flow_features" {
				spans++
			}
		}
		if want := (len(conns) + flushBlock - 1) / flushBlock; spans != want {
			t.Errorf("flow_features ran %d times, want once per block (%d)", spans, want)
		}

		var log bytes.Buffer
		cfg.Hooks = &StreamHooks{ConnsClosed: func(cs []*flow.Connection) error { return flow.WriteConnLog(&log, cs) }}
		joined, tail := testStreamHooked(t, eng, ds, cfg, nil)
		requireEqualResults(t, ref, joined, "hooked blocked flush")
		requireEqualResults(t, ref, tail, "hooked flush tail")
		if !bytes.Equal(log.Bytes(), want.Bytes()) {
			t.Errorf("conn-log of the blocked pass differs from batch assembly's")
		}
	}
}

// TestFlushBlocksRunWhole: a train-mode fit reads every row at once, and
// a pass the shared cache serves reads the trace as one chunk, so neither
// blocks its flush.
func TestFlushBlocksRunWhole(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.2)
	eng := NewEngine(flowPipeline("decision_tree", nil))
	r, err := newStreamExec(eng, dataset.NewSliceSource(ds), ModeTrain, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if blocked := r.flushBlocks(); blocked != nil {
		t.Errorf("train mode blocks %v", blocked)
	}
	r, err = newStreamExec(eng, dataset.NewSliceSource(ds), ModeTest, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.keys = map[string]string{}
	if blocked := r.flushBlocks(); blocked != nil {
		t.Errorf("a cache-served pass blocks %v", blocked)
	}
}

// TestFlowPassRetentionPerFlow: what a flow pass holds grows with the
// flows it has assembled, not with the packets it has seen. From its
// first chunk to its last, the live heap of a pass over an F1 trace grows
// by the flows themselves (struct and spilled stats) plus 64 B a flow and
// a fixed 256 KiB for the sink's slice, the assembler's map and the like.
// A table of 24 B per packet kept beside the flows (about 94 B a flow on
// F1) fails it.
func TestFlowPassRetentionPerFlow(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(20)
	eng := NewEngine(flowPipeline("decision_tree", map[string]any{"max_depth": 4}))
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	// Two collections: pooled buffers survive the first in the victim cache.
	liveNow := func() float64 {
		runtime.GC()
		runtime.GC()
		return float64(heapLiveBytes())
	}
	var first, last, held, flows float64
	hooks := &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
		switch {
		case up.Seq == 0:
			first = liveNow()
		case up.Base+len(up.Views) == len(ds.Packets):
			last = liveNow()
		}
		return nil
	}, ConnsClosed: func(cs []*flow.Connection) error {
		for _, c := range cs {
			held += float64(unsafe.Sizeof(*c)) + float64(spilledStatBytes(c.Stats))
		}
		flows = float64(len(cs))
		return nil
	}}
	if _, err := eng.TestStream(ds, StreamConfig{ChunkRows: 512, Hooks: hooks}); err != nil {
		t.Fatal(err)
	}
	if first == 0 || last == 0 || flows < 10_000 {
		t.Fatalf("fixture: live %.0f then %.0f B over %.0f flows", first, last, flows)
	}
	grew, limit := last-first, held+64*flows+256<<10
	t.Logf("%.1f packets a flow; the pass grew %.0f B a flow, the flows hold %.0f, limit %.0f",
		float64(len(ds.Packets))/flows, grew/flows, held/flows, limit/flows)
	if grew > limit {
		t.Errorf("the pass grew %.0f B over %.0f flows, above %.0f", grew, flows, limit)
	}
}
