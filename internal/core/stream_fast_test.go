package core

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/pcap"
)

// captureBytes serializes a dataset to an in-memory pcap.
func captureBytes(t testing.TB, ds *dataset.Labeled) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Packets {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appFieldPipeline touches every app-layer field class, forcing the
// deepest lazy decode (headers + DNS + HTTP + MQTT).
func appFieldPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-field-apps",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{
					"len", "proto", "payload_len",
					"dns_qr", "dns_qd", "is_http", "http_status", "is_mqtt", "mqtt_type",
				}}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

// metaFieldPipeline reads only packet metadata (ts/len/iat), the depth
// at which header decoding is skipped entirely.
func metaFieldPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-field-meta",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"ts", "len", "iat"}}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

// unlabeled returns the batch result a capture read-back of the same
// trace must reproduce: identical verdicts, with the ground truth a pcap
// file cannot carry zeroed.
func unlabeled(res *EvalResult) *EvalResult {
	out := *res
	out.Truth = make([]int, len(res.Truth))
	out.Attacks = make([]string, len(res.Attacks))
	return &out
}

// pcapShapes are the depths the capture-source sweeps cover.
var pcapShapes = []StreamConfig{
	{ChunkRows: 64},
	{ChunkRows: 64, PipelineDepth: 2},
}

// sweepPcapShapes trains p on ds, then streams the dataset's capture
// bytes through a PcapSource in every execution shape; each pass must
// reproduce the batch verdicts bit for bit.
func sweepPcapShapes(t *testing.T, p *Pipeline, ds *dataset.Labeled, name string) {
	t.Helper()
	raw := captureBytes(t, ds)
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	batch, err := eng.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := unlabeled(batch)
	for _, cfg := range pcapShapes {
		label := fmt.Sprintf("depth %d", cfg.PipelineDepth)
		src, err := dataset.NewPcapSource("mem.pcap", bytes.NewReader(raw), dataset.Packet)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunStream(src, ModeTest, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEqualResults(t, want, got, name+" "+label)
	}
}

// TestStreamPcapSourceEquivalence is the acceptance sweep for capture
// ingest: for every packet-op class, at every decode depth the planner
// can hint, a test pass over a pcap source must be bit-identical to the
// batch run over the materialized dataset — inline and staged. (The
// per-field oracle in ops_packet_oracle_test.go pins what
// the ops read from a view; this pins that chunking, predecode and the
// execution shape change none of it.)
func TestStreamPcapSourceEquivalence(t *testing.T) {
	cases := []struct {
		name string
		p    *Pipeline
		ds   string
	}{
		{"field-headers", fieldPipeline(), "P0"},
		{"field-apps", appFieldPipeline(), "P0"},
		{"field-meta", metaFieldPipeline(), "P0"},
		{"nprint", nprintPipeline(), "P0"},
		{"kitsune", kitsunePipeline(), "P1"},
		{"autoencoder-scores", scorePipeline(), "P3"},
		{"dot11", dot11Pipeline(), "P2"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := dataset.Get(tc.ds)
			if !ok {
				t.Fatalf("no dataset %s", tc.ds)
			}
			sweepPcapShapes(t, tc.p, spec.Generate(0.05), tc.name)
		})
	}
}

// TestStreamPcapSourceFlowOnly: a pipeline whose only packet reader is a
// flow sink feeds its assemblers per-packet summaries built from the
// views, retains them, and the flush-time feature pass reads them
// instead of decoded packets — bit-identical to the batch driver over
// the materialized packets.
func TestStreamPcapSourceFlowOnly(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	sweepPcapShapes(t, flowPipeline("decision_tree", map[string]any{"max_depth": 6}), spec.Generate(0.05), "flow-only")
}

// TestStreamHooksReceiveViews: a hooked pass hands every packet of the
// stream to the callback as a view.
func TestStreamHooksReceiveViews(t *testing.T) {
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.05)
	raw := captureBytes(t, ds)
	p := fieldPipeline()
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewPcapSource("mem.pcap", bytes.NewReader(raw), dataset.Packet)
	if err != nil {
		t.Fatal(err)
	}
	var nviews int
	cfg := StreamConfig{
		ChunkRows: 64,
		Hooks: &StreamHooks{
			AfterChunk: func(up ChunkUpdate) error {
				nviews += len(up.Views)
				return nil
			},
		},
	}
	if _, err := eng.RunStream(src, ModeTest, cfg); err != nil {
		t.Fatal(err)
	}
	if nviews != len(ds.Packets) {
		t.Fatalf("hook saw %d views, want %d", nviews, len(ds.Packets))
	}
}

// TestStreamLazyViewsAllocs pins the allocation budget of the columnar
// view path: a steady-state test pass over a pooled pcap source must
// stay within 2 allocations per packet (materializing layer structs
// alone would cost 5+).
func TestStreamLazyViewsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; allocation thresholds do not hold")
	}
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.1)
	raw := captureBytes(t, ds)
	p := &Pipeline{
		Name:        "stream-allocs",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"len", "ttl", "dst_port"}}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewPcapSource("mem.pcap", bytes.NewReader(raw), dataset.Packet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{ChunkRows: 512}
	pass := func() {
		if _, err := eng.RunStream(src, ModeTest, cfg); err != nil {
			t.Fatal(err)
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	pass() // warm the pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perRun := testing.AllocsPerRun(3, pass)
	perPkt := perRun / float64(len(ds.Packets))
	t.Logf("%.0f allocs/run over %d packets = %.2f allocs/packet", perRun, len(ds.Packets), perPkt)
	if perPkt > 2 {
		t.Errorf("lazy columnar path allocates %.2f/packet, budget is 2", perPkt)
	}
}
