package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// onlinePipeline is the canonical prequential template: fitted scalers
// feed an SGD-family model, with a drift monitor on the score stream.
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

// noScalerPipeline feeds the raw features straight to the model.
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

// TestPrequentialBatchDetectorOnlyScores: a thresholded batch detector
// cannot partial-fit, so an Online test pass scores every chunk with the
// model as trained and folds nothing into it: its result is the plain
// pass's bit for bit, and it counts no partial-fit row.
func TestPrequentialBatchDetectorOnlyScores(t *testing.T) {
	ds := onlineDS(t)
	for _, model := range []string{"gmm", "ocsvm"} {
		var want *EvalResult
		for _, online := range []bool{false, true} {
			eng := NewEngine(noScalerPipeline(model))
			eng.Seed = 7
			if err := eng.Train(ds); err != nil {
				t.Fatalf("%s: train: %v", model, err)
			}
			met := obs.NewMetrics()
			eng.Metrics = met
			got, err := eng.TestStream(ds, StreamConfig{ChunkRows: 64, Online: online})
			if err != nil {
				t.Fatalf("%s online=%v: %v", model, online, err)
			}
			if n := met.Counter("lumen_partial_fit_rows_total", "Rows absorbed by online partial-fit model updates.").Value(); n != 0 {
				t.Errorf("%s online=%v: %d partial-fit rows counted", model, online, n)
			}
			if want == nil {
				want = got
				continue
			}
			requireEqualResults(t, want, got, model+" online")
		}
	}
}

// TestOnlinePrequentialShapeEquivalence: at a fixed chunk size, a
// prequential test pass (fitted scalers, partial-fit train, drift
// monitor) after a batch fit must produce identical results at every
// depth.
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
			if err := eng.Train(ds); err != nil {
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

// TestOnlineScalersStream pins where the scalers and the train op run: a
// train pass fits them whole, at drain, and a test pass, prequential
// included, streams the whole pipeline (no barrier, no retained frames).
func TestOnlineScalersStream(t *testing.T) {
	p := onlinePipeline("linear_svm")
	eng := NewEngine(p)
	train, err := eng.StreamPlan(ModeTrain)
	if err != nil {
		t.Fatal(err)
	}
	test, err := eng.StreamPlan(ModeTest)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range p.Ops {
		if !test.Stage[i].streamed() {
			t.Errorf("test: op %s not streamed", op.Func)
		}
		if fn := op.Func; (fn == "normalize" || fn == "clip" || fn == "train") && train.Stage[i] != StageDrain {
			t.Errorf("train: op %s runs at stage %s, want drain", fn, train.Stage[i])
		}
	}
	if slices.Contains(test.Accum, true) || test.Barrier != nil {
		t.Errorf("test plan retains state: accum=%v barrier=%+v", test.Accum, test.Barrier)
	}
	if train.Barrier == nil || train.Barrier.Reason != "fits global state in train mode" {
		t.Errorf("train plan barrier = %+v, want a fitted op", train.Barrier)
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
