package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

// badFilterPipeline fails on the first chunk: the filter references a
// column field_extract never produced. filter is row-local, so the error
// surfaces in the op-worker stage and travels to the sink with its job.
func badFilterPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-shard-bad-filter",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"len", "ttl"}}},
			{Func: "filter", Input: []string{"X"}, Output: "Xf",
				Params: map[string]any{"col": "no_such_column", "op": ">", "value": 0.0}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree"}},
			{Func: "train", Input: []string{"m", "Xf"}, Output: "fit"},
		},
	}
}

// errTruncated is the simulated capture failure used by failingSource.
var errTruncated = errors.New("simulated capture truncation")

// failingSource delivers failAt-1 chunks, then fails the stream the way
// a truncated capture would: Next reports end-of-stream and Err exposes
// the cause. Only the pump goroutine touches calls/err; Pump.Err reads
// err after the chunk channel closed (a happens-before edge).
type failingSource struct {
	inner  dataset.Source
	failAt int // 1-based Next call that fails
	calls  int
	err    error
}

func (s *failingSource) Meta() dataset.SourceMeta { return s.inner.Meta() }

func (s *failingSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	s.calls++
	if s.calls >= s.failAt {
		s.err = errTruncated
		return dataset.Chunk{}, false
	}
	return s.inner.Next(maxRows, maxBytes)
}

func (s *failingSource) Reset() error {
	s.calls, s.err = 0, nil
	return s.inner.Reset()
}

func (s *failingSource) Err() error { return s.err }

// slowEOFSource delivers every chunk instantly but takes delay to detect
// end-of-stream — a capture whose final read blocks on a timeout. The
// stages spend that time blocked on channels that only ever close, which
// must not be booked as stall.
type slowEOFSource struct {
	inner dataset.Source
	delay time.Duration
}

func (s *slowEOFSource) Meta() dataset.SourceMeta { return s.inner.Meta() }

func (s *slowEOFSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	ck, ok := s.inner.Next(maxRows, maxBytes)
	if !ok {
		time.Sleep(s.delay)
	}
	return ck, ok
}

func (s *slowEOFSource) Reset() error { return s.inner.Reset() }

// trackedSource gives every chunk it hands out a counted backing
// reference and counts the recycles, so a run can be held to the release
// contract: each delivered chunk is recycled once and its reference
// released once, however the run ended.
type trackedSource struct {
	inner                       *dataset.SliceSource
	emitted, recycled, released atomic.Int64
}

type trackedRef struct{ n *atomic.Int64 }

func (r trackedRef) Release() error { r.n.Add(1); return nil }

func (s *trackedSource) Meta() dataset.SourceMeta { return s.inner.Meta() }

func (s *trackedSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	ck, ok := s.inner.Next(maxRows, maxBytes)
	if ok {
		s.emitted.Add(1)
		ck.Ref = trackedRef{&s.released}
	}
	return ck, ok
}

func (s *trackedSource) Reset() error { return s.inner.Reset() }

func (s *trackedSource) Recycle(ck dataset.Chunk) {
	s.recycled.Add(1)
	s.inner.Recycle(ck)
}

// TestStreamErrorUnwindReleasesChunks is the unwind regression test:
// when an error stops the pipeline mid-stream with several workers in
// flight, every chunk the source handed out must still be recycled and
// have its backing reference released, exactly once — a chunk stranded
// on a worker's shutdown path pins a mapped capture for the life of the
// process. Repeated runs make the racy worker-side unwind branch (a
// select between a ready send and the closed done channel) all but
// certain to be taken at least once; the balance must hold no matter
// which exit each worker used.
func TestStreamErrorUnwindReleasesChunks(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	p := badFilterPipeline()
	for _, shape := range []StreamConfig{
		{ChunkRows: 16},
		{ChunkRows: 16, PipelineDepth: 4, Workers: 4},
		{ChunkRows: 16, PipelineDepth: 4, Workers: 4, Shards: 2},
	} {
		for i := 0; i < 10; i++ {
			src := &trackedSource{inner: dataset.NewSliceSource(ds)}
			eng := NewEngine(p)
			eng.Seed = 7
			if _, err := eng.RunStream(src, ModeTrain, shape); err == nil {
				t.Fatal("run with the bad filter should have failed")
			}
			emitted, recycled, released := src.emitted.Load(), src.recycled.Load(), src.released.Load()
			if emitted == 0 {
				t.Fatal("the source handed out no chunk")
			}
			if recycled != emitted || released != emitted {
				t.Fatalf("depth %d, workers %d, shards %d, run %d: %d chunks handed out, %d recycled, %d released",
					shape.PipelineDepth, shape.Workers, shape.Shards, i, emitted, recycled, released)
			}
		}
	}
}

// TestStreamStallExcludesShutdown pins the stall accounting fix: the
// final blocked receive on each stage channel only observes the close,
// so a source that is slow to *detect* EOF (but fast to deliver chunks)
// must leave ops and sink stall near zero. Before the fix both counters
// absorbed the whole EOF delay per goroutine.
func TestStreamStallExcludesShutdown(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	p := fieldPipeline()
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.TrainStream(ds, StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	const delay = 150 * time.Millisecond
	src := &slowEOFSource{inner: dataset.NewSliceSource(ds), delay: delay}
	// One chunk holds the whole trace, so after it clears the stages the
	// only thing left to wait for is the delayed close.
	cfg := StreamConfig{ChunkRows: len(ds.Packets), PipelineDepth: 2, Workers: 2}
	if _, err := eng.RunStream(src, ModeTest, cfg); err != nil {
		t.Fatal(err)
	}
	st := eng.LastStream
	if limit := (delay / 2).Nanoseconds(); st.OpsStallNS >= limit || st.SinkStallNS >= limit {
		t.Errorf("shutdown wait was booked as stall: ops %v, sink %v (EOF delay %v)",
			time.Duration(st.OpsStallNS), time.Duration(st.SinkStallNS), delay)
	}
}

// TestStreamSinkAndSourceErrorsBothSurface pins the unwind fix for
// concurrent failures: the sink hits the first in-order op error while
// the source independently dies mid-capture. The run used to report
// only the sink's error and silently drop the source's; now both are
// joined.
func TestStreamSinkAndSourceErrorsBothSurface(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	for _, shape := range []StreamConfig{
		{ChunkRows: 16, PipelineDepth: 2, Workers: 2},
		{ChunkRows: 16, PipelineDepth: 2, Workers: 2, Shards: 2},
	} {
		// The source delivers chunk 0 then fails on the very next pull —
		// before the sink's verdict on chunk 0 can stop the pump — so
		// both failures are always in play.
		src := &failingSource{inner: dataset.NewSliceSource(ds), failAt: 2}
		eng := NewEngine(badFilterPipeline())
		eng.Seed = 7
		_, err := eng.RunStream(src, ModeTrain, shape)
		if err == nil {
			t.Fatal("run should have failed")
		}
		if !strings.Contains(err.Error(), "no_such_column") {
			t.Errorf("sink op error missing (shards %d): %v", shape.Shards, err)
		}
		if !errors.Is(err, errTruncated) || !strings.Contains(err.Error(), "packet source") {
			t.Errorf("source error missing (shards %d): %v", shape.Shards, err)
		}
	}

	// A clean pipeline over the same dying source still reports just the
	// source failure.
	src := &failingSource{inner: dataset.NewSliceSource(ds), failAt: 2}
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	_, err := eng.RunStream(src, ModeTrain, StreamConfig{ChunkRows: 16, PipelineDepth: 2, Workers: 2})
	if !errors.Is(err, errTruncated) {
		t.Errorf("source-only failure not surfaced: %v", err)
	}
}

// TestStreamShardFlowStraddle: flows whose packets straddle many chunk
// boundaries must assemble identically at every shard count. The
// EvalResult of a connection-granularity pipeline is a function of the
// assembled conn log (count, order, features, labels), so bit-equality
// here pins the log itself across K.
func TestStreamShardFlowStraddle(t *testing.T) {
	ids := dataset.ConnectionIDs()
	if len(ids) == 0 {
		t.Fatal("no connection datasets registered")
	}
	spec, ok := dataset.Get(ids[0])
	if !ok {
		t.Fatalf("no dataset %s", ids[0])
	}
	ds := spec.Generate(0.05)
	p := flowPipeline("decision_tree", map[string]any{"max_depth": 6})
	want := batchRun(t, p, ds)
	for _, k := range []int{1, 2, 8} {
		// Tiny chunks: nearly every flow spans several chunks.
		cfg := StreamConfig{ChunkRows: 16, PipelineDepth: 2, Workers: 2, Shards: k}
		eng := NewEngine(p)
		eng.Seed = 7
		if err := eng.TrainStream(ds, cfg); err != nil {
			t.Fatalf("shards %d: %v", k, err)
		}
		got, err := eng.TestStream(ds, cfg)
		if err != nil {
			t.Fatalf("shards %d: %v", k, err)
		}
		requireEqualResults(t, want, got, fmt.Sprintf("shards %d", k))
		if eng.LastStream.Shards != k {
			t.Errorf("LastStream.Shards = %d, want %d", eng.LastStream.Shards, k)
		}
	}
}

// singleFlowDataset carves the busiest canonical five-tuple out of a
// generated trace: one flow's packets, nothing else.
func singleFlowDataset(t *testing.T) *dataset.Labeled {
	t.Helper()
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	groups := map[netpkt.FiveTuple][]int{}
	for i, p := range ds.Packets {
		if ft, ok := p.Tuple(); ok {
			c := ft.Canonical()
			groups[c] = append(groups[c], i)
		}
	}
	var best []int
	for _, idx := range groups {
		if len(idx) > len(best) {
			best = idx
		}
	}
	if len(best) < 8 {
		t.Fatalf("busiest flow has only %d packets", len(best))
	}
	sub := &dataset.Labeled{
		Name:        ds.Name + "-oneflow",
		Granularity: ds.Granularity,
		Link:        ds.Link,
		Devices:     ds.Devices,
	}
	for _, i := range best {
		sub.Packets = append(sub.Packets, ds.Packets[i])
		sub.Labels = append(sub.Labels, ds.Labels[i])
		sub.Attacks = append(sub.Attacks, ds.Attacks[i])
	}
	return sub
}

// TestStreamShardSingleFlowEmptyLanes: a trace that is one flow hashes
// every packet to the same lane, leaving the other K-1 lanes empty (they
// still receive every job and score zero rows). Results must match the
// sequential run exactly at every K, including the flow sink's log.
func TestStreamShardSingleFlowEmptyLanes(t *testing.T) {
	ds := singleFlowDataset(t)
	p := &Pipeline{
		Name:        "stream-shard-oneflow",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "flows",
				Params: map[string]any{"granularity": "connection"}},
			{Func: "field_extract", Input: []string{InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"len", "ttl", "dst_port"}}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 4}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
	var want *EvalResult
	for _, k := range []int{1, 2, 8} {
		cfg := StreamConfig{ChunkRows: 8, PipelineDepth: 2, Workers: 2, Shards: k}
		eng := NewEngine(p)
		eng.Seed = 7
		if err := eng.TrainStream(ds, cfg); err != nil {
			t.Fatalf("shards %d train: %v", k, err)
		}
		got, err := eng.TestStream(ds, cfg)
		if err != nil {
			t.Fatalf("shards %d test: %v", k, err)
		}
		if want == nil {
			want = got
			continue
		}
		requireEqualResults(t, want, got, fmt.Sprintf("shards %d", k))
	}
}
