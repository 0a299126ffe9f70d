package core

import (
	"fmt"
	"reflect"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// onlinePipeline is the canonical online-learning template: streaming
// scalers feed an SGD-family model, with a drift monitor on the score
// stream.
func onlinePipeline(model string) *Pipeline {
	return &Pipeline{
		Name:        "stream-online-" + model,
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"len", "ttl", "dst_port", "tcp_syn"}}},
			{Func: "normalize", Input: []string{"X"}, Output: "Xn", Params: map[string]any{"kind": "zscore"}},
			{Func: "clip", Input: []string{"Xn"}, Output: "Xc", Params: map[string]any{"quantile": 0.99}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": model}},
			{Func: "train", Input: []string{"m", "Xc"}, Output: "fit"},
			{Func: "drift_detect", Input: []string{"fit"}, Output: "drift",
				Params: map[string]any{"lambda": 5.0, "min_samples": 10}},
		},
	}
}

// noScalerPipeline keeps the feature path stateless so online training is
// a pure function of global row order.
func noScalerPipeline(model string) *Pipeline {
	return &Pipeline{
		Name:        "stream-online-raw-" + model,
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"len", "ttl", "dst_port", "tcp_syn"}}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": model}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

func onlineDS(t *testing.T) *dataset.Labeled {
	t.Helper()
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	return spec.Generate(0.05)
}

// TestOnlineTrainChunkInvariantNoScaler: without streaming scalers in the
// path, an online training pass is a pure fold over the global row order,
// so every chunk size must produce the identical fitted model. linear_svm
// and mlp partial-fit natively; decision_tree goes through the reservoir
// wrapper, whose Algorithm-R sample is also a function of row order only.
func TestOnlineTrainChunkInvariantNoScaler(t *testing.T) {
	ds := onlineDS(t)
	for _, model := range []string{"linear_svm", "mlp", "decision_tree"} {
		var want *EvalResult
		for _, rows := range streamChunkSizes {
			eng := NewEngine(noScalerPipeline(model))
			eng.Seed = 7
			if err := eng.TrainStream(ds, StreamConfig{ChunkRows: rows, Online: true}); err != nil {
				t.Fatalf("%s chunk %d: online train: %v", model, rows, err)
			}
			got, err := eng.Test(ds)
			if err != nil {
				t.Fatalf("%s chunk %d: test: %v", model, rows, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(want.Pred, got.Pred) {
				t.Errorf("%s: chunk size %d trains a different model", model, rows)
			}
		}
	}
}

// TestOnlinePrequentialShapeEquivalence: at a fixed chunk size, an online
// pass (streaming scalers, partial-fit train, prequential test, drift
// monitor) must produce identical results at every depth.
func TestOnlinePrequentialShapeEquivalence(t *testing.T) {
	ds := onlineDS(t)
	p := onlinePipeline("linear_svm")
	for _, rows := range streamChunkSizes {
		var want *EvalResult
		wantDrift := -1
		for _, shape := range streamExecShapes {
			shape.ChunkRows = rows
			shape.Online = true
			eng := NewEngine(p)
			eng.Seed = 7
			if err := eng.TrainStream(ds, shape); err != nil {
				t.Fatalf("chunk %d shape %+v: train: %v", rows, shape, err)
			}
			got, err := eng.TestStream(ds, shape)
			if err != nil {
				t.Fatalf("chunk %d shape %+v: test: %v", rows, shape, err)
			}
			if want == nil {
				want, wantDrift = got, eng.LastStream.DriftEvents
				continue
			}
			requireEqualResults(t, want, got, fmt.Sprintf("chunk %d depth %d", rows, shape.PipelineDepth))
			if eng.LastStream.DriftEvents != wantDrift {
				t.Errorf("chunk %d depth %d: %d drift events, want %d",
					rows, shape.PipelineDepth, eng.LastStream.DriftEvents, wantDrift)
			}
		}
	}
}

// TestOnlineScalersStream pins that an online training pass streams the
// scalers and the train op (no barrier, no retained packets): the whole
// pipeline must be classified streamed in ModeTrain when online.
func TestOnlineScalersStream(t *testing.T) {
	p := onlinePipeline("linear_svm")
	eng := NewEngine(p)
	eng.Seed = 7
	off, err := eng.StreamPlan(ModeTrain, false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := eng.StreamPlan(ModeTrain, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range p.Ops {
		if !on.Stage[i].streamed() {
			t.Errorf("online train: op %s not streamed", op.Func)
		}
		if fn := op.Func; (fn == "normalize" || fn == "clip" || fn == "train") && off.Stage[i].streamed() {
			t.Errorf("offline train: op %s unexpectedly streamed", fn)
		}
	}
	if len(on.Accum) != 0 || on.Barrier != nil {
		t.Errorf("online train plan retains state: accum=%v barrier=%+v", on.Accum, on.Barrier)
	}
	if off.Barrier == nil || off.Barrier.Reason != "fits global state in train mode" {
		t.Errorf("offline train plan barrier = %+v, want a fitted op", off.Barrier)
	}
}

// driftedDS reorders a trace so all benign packets precede all attack
// packets: a score stream that shifts sharply mid-trace.
func driftedDS(t *testing.T) *dataset.Labeled {
	t.Helper()
	ds := onlineDS(t)
	out := &dataset.Labeled{
		Name:        ds.Name + "-drift",
		Granularity: ds.Granularity,
		Link:        ds.Link,
		Devices:     ds.Devices,
	}
	for _, want := range []int{0, 1} {
		for i, l := range ds.Labels {
			if l != want {
				continue
			}
			out.Packets = append(out.Packets, ds.Packets[i])
			out.Labels = append(out.Labels, l)
			out.Attacks = append(out.Attacks, ds.Attacks[i])
		}
	}
	return out
}

// driftPipeline scores a decision tree's predictions with a drift monitor.
func driftPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-drift",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"len", "ttl", "dst_port", "tcp_syn"}}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
			{Func: "drift_detect", Input: []string{"fit"}, Output: "drift",
				Params: map[string]any{"lambda": 5.0, "min_samples": 10}},
		},
	}
}

// TestDriftDetectRaisesEvents: a model that tracks the labels sees its
// prediction stream shift when the attack phase begins; the drift op must
// fire, surface events through the hook (with the chunk's features when
// requested), and count them in LastStream.
func TestDriftDetectRaisesEvents(t *testing.T) {
	ds := driftedDS(t)
	eng := NewEngine(driftPipeline())
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	var events []DriftEvent
	sawFeatures := false
	cfg := StreamConfig{ChunkRows: 64, Hooks: &StreamHooks{WantFeatures: true}}
	res := testStreamHooked(t, eng, ds, cfg, func(up ChunkUpdate) error {
		events = append(events, up.Drift...)
		if len(up.Features) > 0 && len(up.Features) == len(up.Labels) {
			sawFeatures = true
		}
		return nil
	})
	if len(res.Pred) != len(ds.Packets) {
		t.Fatalf("got %d predictions for %d packets", len(res.Pred), len(ds.Packets))
	}
	if len(events) == 0 {
		t.Fatal("no drift events on a label-shifted trace")
	}
	if eng.LastStream.DriftEvents != len(events) {
		t.Errorf("LastStream.DriftEvents = %d, hook saw %d", eng.LastStream.DriftEvents, len(events))
	}
	if !sawFeatures {
		t.Error("WantFeatures did not surface the train frame")
	}
	ev := events[0]
	if ev.Output != "drift" || ev.Stat <= 0 || ev.Base < 0 || ev.Row < 0 {
		t.Errorf("malformed drift event: %+v", ev)
	}
	// The first detection should come after the benign prefix.
	nBenign := 0
	for _, l := range ds.Labels {
		if l == 0 {
			nBenign++
		}
	}
	if global := ev.Base + ev.Row; global < nBenign/2 {
		t.Errorf("drift fired at row %d, before the shift region (benign prefix %d)", global, nBenign)
	}
}

// TestDriftEventsWholeTraceMatchChunked: drift_detect is a fold over the
// score stream in row order, so a whole-trace Test, which is one chunk,
// raises the events chunk sizes 64 and 1024 raise, at the same global
// rows with the same statistics.
func TestDriftEventsWholeTraceMatchChunked(t *testing.T) {
	ds := driftedDS(t)
	eng := NewEngine(driftPipeline())
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Test(ds); err != nil {
		t.Fatal(err)
	}
	whole := eng.LastStream.DriftEvents
	if whole == 0 {
		t.Fatal("a whole-trace Test raised no drift events on a label-shifted trace")
	}
	// An event compares across chunkings by its global row.
	type row struct {
		at         int
		stat, mean float64
	}
	var want []row
	for _, chunk := range []int{0, 64, 1024} {
		var got []row
		testStreamHooked(t, eng, ds, StreamConfig{ChunkRows: chunk}, func(up ChunkUpdate) error {
			for _, ev := range up.Drift {
				got = append(got, row{ev.Base + ev.Row, ev.Stat, ev.Mean})
			}
			return nil
		})
		if eng.LastStream.DriftEvents != whole || len(got) != whole {
			t.Fatalf("chunk %d: LastStream.DriftEvents %d, hook saw %d, whole-trace Test %d", chunk, eng.LastStream.DriftEvents, len(got), whole)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("chunk %d: drift events %v, whole trace %v", chunk, got, want)
		}
	}
}

// TestOpMetricsOnePerChunk: at every depth lumen_ops_total counts the
// train op exactly once per chunk.
func TestOpMetricsOnePerChunk(t *testing.T) {
	ds := onlineDS(t)
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	if err := eng.TrainStream(ds, StreamConfig{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range streamExecShapes {
		cfg.ChunkRows = 64
		met := obs.NewMetrics()
		eng.Metrics = met
		if _, err := eng.TestStream(ds, cfg); err != nil {
			t.Fatal(err)
		}
		n := met.Counter("lumen_ops_total",
			"Pipeline operations executed (including cache-served ones).",
			"op", "train").Value()
		if want := uint64(eng.LastStream.Chunks); n != want {
			t.Errorf("depth %d: lumen_ops_total{op=train} = %d, want %d (one per chunk)",
				cfg.PipelineDepth, n, want)
		}
	}
}
