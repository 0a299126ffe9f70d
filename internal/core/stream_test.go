package core

import (
	"fmt"
	"reflect"
	"testing"

	"lumen/internal/dataset"
)

// streamChunkSizes is the equivalence matrix from the issue: small chunks,
// large chunks, and whole-trace-as-one-chunk.
var streamChunkSizes = []int{64, 1024, 0}

// streamExecShapes are the depths every equivalence case runs at: 0
// (cut, prepare and sink in turn on the caller's goroutine) and two
// staged depths (source and ops goroutines ahead of the sink).
var streamExecShapes = []StreamConfig{
	{},
	{PipelineDepth: 2},
	{PipelineDepth: 4},
}

func flowPipeline(model string, extra map[string]any) *Pipeline {
	mp := map[string]any{"model_type": model}
	for k, v := range extra {
		mp[k] = v
	}
	return &Pipeline{
		Name:        "stream-flow-" + model,
		Granularity: "connection",
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "flows", Params: map[string]any{"granularity": "connection"}},
			{Func: "flow_features", Input: []string{"flows"}, Output: "X"},
			{Func: "normalize", Input: []string{"X"}, Output: "Xn", Params: map[string]any{"kind": "zscore"}},
			{Func: "model", Output: "m", Params: mp},
			{Func: "train", Input: []string{"m", "Xn"}, Output: "fit"},
		},
	}
}

func fieldPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-field-dt",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"ts", "len", "ttl", "dst_port", "tcp_syn", "iat"}}},
			{Func: "filter", Input: []string{"X"}, Output: "Xf", Params: map[string]any{"col": "len", "op": ">", "value": 0.0}},
			{Func: "log_scale", Input: []string{"Xf"}, Output: "Xl"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "Xl"}, Output: "fit"},
		},
	}
}

func dot11Pipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-dot11-dt",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "dot11_features", Input: []string{InputName}, Output: "X"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

func kitsunePipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-kitsune-dt",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "kitsune_features", Input: []string{InputName}, Output: "X", Params: map[string]any{"lambdas": []any{0.1}}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

func nprintPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-nprint-dt",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "nprint", Input: []string{InputName}, Output: "X", Params: map[string]any{"variant": "tcp_udp_ipv4"}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 5}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

// packetAggPipeline routes through the barrier chain group_by ->
// time_slice -> broadcast_aggregates, so test mode defers everything past
// field_extract to the flush pass.
func packetAggPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-packet-agg",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"ts", "len", "src_ip", "dst_port"}}},
			{Func: "group_by", Input: []string{"X"}, Output: "G", Params: map[string]any{"keys": []any{"src_ip"}}},
			{Func: "time_slice", Input: []string{"G"}, Output: "GT", Params: map[string]any{"window": 5.0}},
			{Func: "broadcast_aggregates", Input: []string{"GT"}, Output: "Xa",
				Params: map[string]any{"list": []any{
					map[string]any{"col": "len", "fn": "mean"},
					map[string]any{"col": "len", "fn": "std"},
					map[string]any{"col": "dst_port", "fn": "distinct"},
				}}},
			{Func: "normalize", Input: []string{"Xa"}, Output: "Xn", Params: map[string]any{"kind": "minmax"}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "Xn"}, Output: "fit"},
		},
	}
}

// scorePipeline exercises the Scores path (Thresholded autoencoder).
func scorePipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-autoenc",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"len", "ttl", "dst_port"}}},
			{Func: "normalize", Input: []string{"X"}, Output: "Xn", Params: map[string]any{"kind": "minmax"}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "autoencoder", "epochs": 3}},
			{Func: "train", Input: []string{"m", "Xn"}, Output: "fit"},
		},
	}
}

// batchRun trains and tests p over ds with the reference batch executor
// (refRun).
func batchRun(t *testing.T, p *Pipeline, ds *dataset.Labeled) *EvalResult {
	t.Helper()
	eng := NewEngine(p)
	eng.Seed = 7
	if _, err := refRun(eng, ds, ModeTrain); err != nil {
		t.Fatalf("batch train: %v", err)
	}
	res, err := refRun(eng, ds, ModeTest)
	if err != nil {
		t.Fatalf("batch test: %v", err)
	}
	return res
}

// streamRun trains and tests p over ds with the chunked engine, once per
// depth. All depths must agree bit-for-bit; the depth-0 result is
// returned (callers compare it against batch, which pins every
// shape transitively).
func streamRun(t *testing.T, p *Pipeline, ds *dataset.Labeled, chunk int) *EvalResult {
	t.Helper()
	var seq *EvalResult
	for _, shape := range streamExecShapes {
		cfg := shape
		cfg.ChunkRows = chunk
		label := fmt.Sprintf("chunk %d, depth %d", chunk, cfg.PipelineDepth)
		eng := NewEngine(p)
		eng.Seed = 7
		if err := eng.TrainStream(ds, cfg); err != nil {
			t.Fatalf("stream train (%s): %v", label, err)
		}
		res, err := eng.TestStream(ds, cfg)
		if err != nil {
			t.Fatalf("stream test (%s): %v", label, err)
		}
		if len(eng.Profile) != len(p.Ops) {
			t.Fatalf("stream profile has %d entries, want %d", len(eng.Profile), len(p.Ops))
		}
		if got, want := eng.LastStream.Pipelined, shape.PipelineDepth > 0; got != want {
			t.Fatalf("LastStream.Pipelined = %v, want %v (%s)", got, want, label)
		}
		if seq == nil {
			seq = res
		} else {
			requireEqualResults(t, seq, res, label+" vs depth 0")
		}
	}
	return seq
}

func requireEqualResults(t *testing.T, batch, stream *EvalResult, label string) {
	t.Helper()
	if !reflect.DeepEqual(batch, stream) {
		t.Errorf("%s: streamed result differs from batch\nbatch:  pred=%d truth=%d scores=%d idx=%d\nstream: pred=%d truth=%d scores=%d idx=%d",
			label,
			len(batch.Pred), len(batch.Truth), len(batch.Scores), len(batch.UnitIdx),
			len(stream.Pred), len(stream.Truth), len(stream.Scores), len(stream.UnitIdx))
	}
}

// TestStreamEquivalenceAllDatasets is the issue's acceptance matrix:
// every registered dataset, chunk sizes {64, 1024, whole-trace}, streamed
// EvalResult bit-identical to batch.
func TestStreamEquivalenceAllDatasets(t *testing.T) {
	for _, spec := range dataset.Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			ds := spec.Generate(0.05)
			var p *Pipeline
			switch {
			case spec.Granularity == dataset.ConnectionG:
				p = flowPipeline("decision_tree", map[string]any{"max_depth": 6})
			case spec.ID == "P2":
				p = dot11Pipeline()
			default:
				p = fieldPipeline()
			}
			want := batchRun(t, p, ds)
			for _, chunk := range streamChunkSizes {
				got := streamRun(t, p, ds, chunk)
				requireEqualResults(t, want, got, fmt.Sprintf("%s chunk=%d", spec.ID, chunk))
			}
		})
	}
}

// TestStreamEquivalencePipelineShapes sweeps the op classes: stateful
// packet folds (kitsune), header expansion (nprint), the grouping barrier
// chain, and the Scores path.
func TestStreamEquivalencePipelineShapes(t *testing.T) {
	cases := []struct {
		name string
		p    *Pipeline
		ds   string
	}{
		{"kitsune", kitsunePipeline(), "P1"},
		{"nprint", nprintPipeline(), "P0"},
		{"packet-agg", packetAggPipeline(), "P0"},
		{"autoencoder-scores", scorePipeline(), "P3"},
		{"flow-rf", flowPipeline("random_forest", map[string]any{"n_trees": 5}), "F4"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := dataset.Get(tc.ds)
			if !ok {
				t.Fatalf("no dataset %s", tc.ds)
			}
			ds := spec.Generate(0.05)
			want := batchRun(t, tc.p, ds)
			for _, chunk := range streamChunkSizes {
				got := streamRun(t, tc.p, ds, chunk)
				requireEqualResults(t, want, got, fmt.Sprintf("%s chunk=%d", tc.name, chunk))
			}
			if tc.name == "autoencoder-scores" && want.Scores == nil {
				t.Error("score pipeline produced no scores; the Scores merge path went untested")
			}
		})
	}
}

// TestStreamBatchTrainStreamTest mixes the paths: a batch-fitted engine
// must serve streamed inference with identical output.
func TestStreamBatchTrainStreamTest(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.05)
	p := flowPipeline("decision_tree", map[string]any{"max_depth": 6})
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.TestStream(ds, StreamConfig{ChunkRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, want, got, "batch-train/stream-test")
}

// TestStreamFlowSpansChunks forces flows across chunk boundaries: chunk
// size 4 splits every connection of the trace over many chunks, so the
// incremental assembler must stitch them exactly as the batch path does.
func TestStreamFlowSpansChunks(t *testing.T) {
	spec, _ := dataset.Get("F4")
	ds := spec.Generate(0.03)
	if len(ds.Packets) < 16 {
		t.Fatalf("dataset too small (%d packets) to span chunks", len(ds.Packets))
	}
	p := flowPipeline("decision_tree", map[string]any{"max_depth": 4})
	want := batchRun(t, p, ds)
	got := streamRun(t, p, ds, 4)
	requireEqualResults(t, want, got, "flow chunk=4")
}

// TestStreamTimeSliceStraddlesChunks pins the barrier-op guarantee: a
// time window that straddles a chunk boundary is aggregated over both
// sides because group_by/time_slice run at flush over the full frame.
func TestStreamTimeSliceStraddlesChunks(t *testing.T) {
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.05)
	p := packetAggPipeline()
	want := batchRun(t, p, ds)
	for _, chunk := range []int{7, 64} {
		got := streamRun(t, p, ds, chunk)
		requireEqualResults(t, want, got, fmt.Sprintf("time-slice chunk=%d", chunk))
	}
}

// emptyTailSource wraps a SliceSource and appends one empty chunk after
// the stream ends, simulating a source whose final pull drains nothing.
type emptyTailSource struct {
	inner *dataset.SliceSource
	n     int
	sent  bool
}

func (s *emptyTailSource) Meta() dataset.SourceMeta { return s.inner.Meta() }

func (s *emptyTailSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	if ck, ok := s.inner.Next(maxRows, maxBytes); ok {
		return ck, true
	}
	if !s.sent {
		s.sent = true
		return dataset.Chunk{Base: s.n}, true
	}
	return dataset.Chunk{}, false
}

func (s *emptyTailSource) Err() error { return s.inner.Err() }

func (s *emptyTailSource) Reset() error {
	s.sent = false
	return s.inner.Reset()
}

// TestStreamEmptyFinalChunk: an empty trailing chunk must not perturb the
// result — streamed ops see a typed zero-row frame and merge to nothing.
func TestStreamEmptyFinalChunk(t *testing.T) {
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.05)
	p := fieldPipeline()
	want := batchRun(t, p, ds)

	for _, shape := range streamExecShapes {
		cfg := shape
		cfg.ChunkRows = 64
		eng := NewEngine(p)
		eng.Seed = 7
		src := &emptyTailSource{inner: dataset.NewSliceSource(ds), n: len(ds.Packets)}
		if _, err := eng.RunStream(src, ModeTrain, cfg); err != nil {
			t.Fatal(err)
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunStream(src, ModeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, want, got, fmt.Sprintf("empty-final-chunk depth=%d", cfg.PipelineDepth))
	}
}

// TestStreamEmptyDataset: a stream with no packets must behave like batch
// on an empty dataset (both fail identically at train: no labels).
func TestStreamEmptyDataset(t *testing.T) {
	ds := &dataset.Labeled{Name: "empty", Granularity: dataset.Packet}
	p := fieldPipeline()
	be := NewEngine(p)
	_, berr := refRun(be, ds, ModeTrain)
	se := NewEngine(p)
	serr := se.TrainStream(ds, StreamConfig{ChunkRows: 64})
	if (berr == nil) != (serr == nil) {
		t.Fatalf("batch err %v vs stream err %v", berr, serr)
	}
	if berr != nil && serr != nil && berr.Error() != serr.Error() {
		t.Fatalf("error mismatch:\nbatch:  %v\nstream: %v", berr, serr)
	}
}

// TestStreamByteBound drives the byte-based chunk bound.
func TestStreamByteBound(t *testing.T) {
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.05)
	p := fieldPipeline()
	want := batchRun(t, p, ds)

	for _, shape := range streamExecShapes {
		cfg := shape
		cfg.ChunkBytes = 4096
		eng := NewEngine(p)
		eng.Seed = 7
		if err := eng.TrainStream(ds, cfg); err != nil {
			t.Fatal(err)
		}
		got, err := eng.TestStream(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualResults(t, want, got, fmt.Sprintf("byte-bound depth=%d", cfg.PipelineDepth))
	}
}

// TestTestStreamBeforeTrain mirrors the batch contract.
func TestTestStreamBeforeTrain(t *testing.T) {
	eng := NewEngine(fieldPipeline())
	if _, err := eng.TestStream(&dataset.Labeled{}, StreamConfig{}); err == nil {
		t.Fatal("TestStream before TrainStream should error")
	}
}
