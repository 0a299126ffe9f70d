package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// TestBlockedFlushMatchesRefRun: a test-mode flow pass over more than two
// blocks of closed flows, the last one partial, featurizes, normalizes and
// scores them block by block, and its rows, unit indices and conn-log
// equal the batch executor's, unhooked and hooked, at depth 0 and staged.
// A hooked pass hands each block's rows in a flush update of its own.
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
		var sizes []int
		cfg.Hooks = &StreamHooks{ConnsClosed: func(cs []*flow.Connection) error { return flow.WriteConnLog(&log, cs) }}
		joined := testStreamHooked(t, eng, ds, cfg, func(up ChunkUpdate) error {
			if up.Flush {
				if len(up.Results) != 1 {
					t.Fatalf("flush update with %d results, want one block's", len(up.Results))
				}
				sizes = append(sizes, len(up.Results[0].Pred))
			} else if len(up.Results) > 0 {
				t.Fatalf("chunk %d handed rows of a deferred op", up.Seq)
			}
			return nil
		})
		requireEqualResults(t, ref, joined, "hooked blocked flush")
		if n := len(sizes); n != spans || sizes[0] != flushBlock || sizes[n-1] != len(conns)-(n-1)*flushBlock {
			t.Errorf("flush updates of %v rows, want one a block of %d over %d flows", sizes, flushBlock, len(conns))
		}
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
// by the flows themselves (struct and stats) plus 64 B a flow and
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
		case up.Flush:
		case up.Seq == 0:
			first = liveNow()
		case up.Base+len(up.Views) == len(ds.Packets):
			last = liveNow()
		}
		return nil
	}, ConnsClosed: func(cs []*flow.Connection) error {
		for _, c := range cs {
			held += float64(unsafe.Sizeof(*c)) + float64(statBytes(c.Stats))
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

// TestFlowSinkAllocsPerFlow: a sink that keeps every member stat
// allocates no more per flow than when each connection carried its first
// four stats inline: 891 allocations over F1's 667 connections at scale
// 1 then, 1.34 a connection. The assembler's flow blocks and the sink's
// stat slab each cost a fraction of an allocation a flow; what is left
// is mostly the stats of connections longer than four packets.
func TestFlowSinkAllocsPerFlow(t *testing.T) {
	const before = 891.0 / 667
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(1)
	views := ds.AppendViews(nil, 0, len(ds.Packets), netpkt.DecodeHint{Headers: true})
	for i := range views {
		views[i].Summary() // decode outside the measured runs
	}
	flows := 0
	allocs := testing.AllocsPerRun(5, func() {
		s, err := newFlowSink(0, params{"granularity": "connection"}, AllStats, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		feedFlows([]*flowSinkState{s}, views, ds.Labels, ds.Attacks)
		flows = s.finish().Len()
	})
	t.Logf("%d connections, %.0f allocations, %.3f a connection (before: %.3f)", flows, allocs, allocs/float64(flows), before)
	if flows != 667 {
		t.Fatalf("fixture: %d connections, want 667", flows)
	}
	if allocs/float64(flows) > before {
		t.Errorf("the sink allocates %.3f times a connection, above %.3f", allocs/float64(flows), before)
	}
}
