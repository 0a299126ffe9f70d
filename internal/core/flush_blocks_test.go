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
// scores them block by block as they close, and its rows, unit indices
// and conn-log equal the batch executor's, unhooked and hooked, at depth
// 0 and staged. A hooked pass hands each block's rows in a flush update
// of its own, the first of them before the source's last chunk, and each
// block's connections to ConnsClosed before its rows.
func TestBlockedFlushMatchesRefRun(t *testing.T) {
	spec, _ := dataset.Get("F3")
	ds := spec.Generate(10)
	conns := flow.Connections(decodedPackets(ds), flow.Options{})
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
	pl, err := eng.StreamPlan(ModeTest)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Stage{StageSink, StageClose, StageClose, StageWorker, StageClose}; !slices.Equal(pl.Stage, want) || pl.CloseSink != 0 || pl.Barrier != nil {
		t.Fatalf("stages %v over close sink %d, barrier %+v; want %v: flow_features, normalize and train at close over sink 0, no barrier", pl.Stage, pl.CloseSink, pl.Barrier, want)
	}
	for _, cfg := range []StreamConfig{{ChunkRows: 512}, {ChunkRows: 512, PipelineDepth: 2}} {
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
		lw := flow.NewConnLogWriter(&log)
		logged, scored, early := 0, 0, 0
		cfg.Hooks = &StreamHooks{ConnsClosed: func(cs []*flow.Flow) error {
			logged += len(cs)
			return lw.Log(cs)
		}}
		joined := testStreamHooked(t, eng, ds, cfg, func(up ChunkUpdate) error {
			switch {
			case up.Flush:
				if len(up.Results) != 1 {
					t.Fatalf("flush update with %d results, want one block's", len(up.Results))
				}
				sizes = append(sizes, len(up.Results[0].Pred))
				if scored += sizes[len(sizes)-1]; logged != scored {
					t.Fatalf("flush update %d came with %d connections logged, want %d", len(sizes), logged, scored)
				}
			case len(up.Results) > 0:
				t.Fatalf("chunk %d handed rows of a deferred op", up.Seq)
			case up.Base+len(up.Views) == len(ds.Packets):
				early = len(sizes)
			}
			return nil
		})
		requireEqualResults(t, ref, joined, "hooked blocked flush")
		if n := len(sizes); n != spans || sizes[0] != flushBlock || sizes[n-1] != len(conns)-(n-1)*flushBlock {
			t.Errorf("flush updates of %v rows, want one a block of %d over %d flows", sizes, flushBlock, len(conns))
		}
		if early == 0 {
			t.Errorf("no flush update came before the last chunk")
		}
		if !bytes.Equal(log.Bytes(), want.Bytes()) {
			t.Errorf("conn-log of the blocked pass differs from batch assembly's")
		}
	}
}

// TestFlowDriftReachesTheHook: on a flow plan that scores as flows
// close, drift_detect runs over each block of closed flows, and each
// block's flush update carries the events it raised, with Seq -1, and
// the rows the train op read: every event the pass counts reaches the
// hook (testStreamHooked), at depth 0 and staged, and the features come
// one row per scored flow.
func TestFlowDriftReachesTheHook(t *testing.T) {
	spec, _ := dataset.Get("F3")
	ds := spec.Generate(3)
	p := flowPipeline("decision_tree", map[string]any{"max_depth": 6})
	p.Ops = append(p.Ops, OpSpec{Func: "drift_detect", Input: []string{"fit"}, Output: "drift",
		Params: map[string]any{"lambda": 5.0, "min_samples": 10, "two_sided": true}})
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 2} {
		events, rows, features := 0, 0, 0
		cfg := StreamConfig{ChunkRows: 512, PipelineDepth: depth, Hooks: &StreamHooks{WantFeatures: true}}
		testStreamHooked(t, eng, ds, cfg, func(up ChunkUpdate) error {
			for _, ev := range up.Drift {
				if ev.Seq != -1 || ev.Output != "drift" {
					t.Fatalf("drift event %+v of a block, want Seq -1 from op drift", ev)
				}
			}
			events += len(up.Drift)
			for _, res := range up.Results {
				rows += len(res.Pred)
			}
			if len(up.Features) != len(up.Labels) {
				t.Fatalf("update with %d feature rows and %d labels", len(up.Features), len(up.Labels))
			}
			features += len(up.Features)
			return nil
		})
		if events == 0 || events != eng.LastStream.DriftEvents {
			t.Errorf("depth %d: the hook saw %d drift events, the pass counted %d; want the same, above 0", depth, events, eng.LastStream.DriftEvents)
		}
		if features != rows || rows == 0 {
			t.Errorf("depth %d: %d feature rows for %d scored flows", depth, features, rows)
		}
	}
}

// TestFlushBlocksRunWhole: a train-mode fit reads every row at once, so
// no op of a train-mode plan runs at close, and a pass the shared cache
// serves reads the trace as one chunk, so it runs them once, whole, at
// drain.
func TestFlushBlocksRunWhole(t *testing.T) {
	spec, _ := dataset.Get("F3")
	ds := spec.Generate(3)
	eng := NewEngine(flowPipeline("decision_tree", nil))
	eng.Seed = 7
	pl, err := eng.StreamPlan(ModeTrain)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(pl.Stage, StageClose) || pl.CloseSink != -1 {
		t.Errorf("train mode runs stages %v, close sink %d", pl.Stage, pl.CloseSink)
	}
	if pl.Barrier == nil || pl.Barrier.Func != "flow_features" {
		t.Errorf("train-mode barrier %+v, want flow_features", pl.Barrier)
	}
	eng.SetCache(NewCache())
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	eng.Span = tr.Start("run", 0)
	res, err := eng.Test(ds)
	eng.Span.End()
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, s := range tr.Spans() {
		if s.Name == "op:flow_features" {
			spans++
		}
	}
	if n := len(res.Pred); n <= flushBlock || spans != 1 {
		t.Errorf("a cache-served pass over %d flows ran flow_features %d times, want once", n, spans)
	}
}

// TestFlowPassRetentionPerFlow: what a hooked flow pass holds is bounded
// by the flows it holds at once, not by the flows it has seen. From its
// first chunk to its last, the live heap of a pass over an F4 trace grows
// by at most the peak count of open and waiting flows, each at the mean
// flow's size (struct and stats) plus 64 B, one block's frame columns
// and scored matrix, and a fixed 384 KiB for the assembler's map and
// queue, the sink's slice, partly used flow blocks and the like. The
// peak is read from the sink's lumen_flow_open and lumen_flow_held
// gauges. The trace's flows are short and none lasts the whole trace, so
// the peak stays a small share of the flows, and a pass that kept every
// closed flow until drain fails the bound.
func TestFlowPassRetentionPerFlow(t *testing.T) {
	spec, _ := dataset.Get("F4")
	ds := spec.Generate(40)
	eng := NewEngine(flowPipeline("decision_tree", map[string]any{"max_depth": 4}))
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	eng.Metrics = met
	// Two collections: pooled buffers survive the first in the victim cache.
	liveNow := func() float64 {
		runtime.GC()
		runtime.GC()
		return float64(heapLiveBytes())
	}
	var first, last, peak, bytes, flows float64
	hooks := &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
		if up.Flush {
			return nil
		}
		held := met.Gauge("lumen_flow_open", "", "output", "flows").Value() + met.Gauge("lumen_flow_held", "", "output", "flows").Value()
		peak = max(peak, held)
		switch {
		case up.Seq == 0:
			first = liveNow()
		case up.Base+len(up.Views) == len(ds.Packets):
			last = liveNow()
		}
		return nil
	}, ConnsClosed: func(cs []*flow.Flow) error {
		for _, c := range cs {
			bytes += float64(unsafe.Sizeof(*c)) + float64(statBytes(c.Stats))
		}
		flows += float64(len(cs))
		return nil
	}}
	if _, err := eng.TestStream(ds, StreamConfig{ChunkRows: 512, Hooks: hooks}); err != nil {
		t.Fatal(err)
	}
	if first == 0 || last == 0 || flows < 10_000 || 4*(peak+flushBlock) > flows {
		t.Fatalf("fixture: live %.0f then %.0f B over %.0f flows, at most %.0f held at once", first, last, flows, peak)
	}
	block := float64(flushBlock * numFlowFeatures * 2 * 8)
	grew, limit := last-first, peak*(bytes/flows+64)+block+384<<10
	t.Logf("%.0f flows, at most %.0f open or waiting; the pass grew %.0f B, limit %.0f",
		flows, peak, grew, limit)
	if grew > limit {
		t.Errorf("the pass grew %.0f B over %.0f flows, at most %.0f of them held at once: above %.0f", grew, flows, peak, limit)
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
