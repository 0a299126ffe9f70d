package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/pcap"
)

// slowSource delays every chunk pull, simulating a decode-bound source
// (e.g. a cold disk) so the downstream stages stall on the bounded
// channel. It hides the wrapped source's Labeled method on purpose.
type slowSource struct {
	inner dataset.Source
	delay time.Duration
}

func (s *slowSource) Meta() dataset.SourceMeta { return s.inner.Meta() }

func (s *slowSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	time.Sleep(s.delay)
	return s.inner.Next(maxRows, maxBytes)
}

func (s *slowSource) Reset() error { return s.inner.Reset() }

func (s *slowSource) Err() error { return s.inner.Err() }

// maxChunkWire computes the largest wire-byte weight of any row-bounded
// chunk window, the unit of the pipeline's O(depth × chunk) memory bound.
func maxChunkWire(ds *dataset.Labeled, chunk int) int {
	maxW := 0
	for i := 0; i < len(ds.Packets); i += chunk {
		end := i + chunk
		if end > len(ds.Packets) {
			end = len(ds.Packets)
		}
		w := 0
		for _, p := range ds.Packets[i:end] {
			w += len(p.Data)
		}
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}

// TestStreamPipelineBackpressure: a slow source (decode-bound) and a slow
// sink (ordered-op-bound kitsune fold) both exercise backpressure on the
// bounded channels. The run must stay bit-identical to depth 0, record
// stall time on the starved side, and keep in-flight bytes within the
// O(depth × chunk) bound: 2·depth + 3 chunks (depth queued on each
// channel, one each in the source, ops and sink stages), never the
// trace.
func TestStreamPipelineBackpressure(t *testing.T) {
	spec, ok := dataset.Get("P1")
	if !ok {
		t.Fatal("no dataset P1")
	}
	ds := spec.Generate(0.05)
	p := kitsunePipeline()
	// At least 16 chunks so several are in flight at every stage.
	chunk := len(ds.Packets) / 16
	if chunk < 4 {
		t.Fatalf("dataset too small (%d packets) to stress the pipeline", len(ds.Packets))
	}

	ref := NewEngine(p)
	ref.Seed = 7
	if err := ref.TrainStream(ds, StreamConfig{ChunkRows: chunk}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.TestStream(ds, StreamConfig{ChunkRows: chunk})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		delay time.Duration
	}{
		// The kitsune fold runs in the sink; with an instant source the
		// sink is the bottleneck and the source stalls on the full queue.
		{"slow-sink", 0},
		// With a delayed source the ops/sink stages starve instead.
		{"slow-source", 500 * time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := StreamConfig{ChunkRows: chunk, PipelineDepth: 2}
			eng := NewEngine(p)
			eng.Seed = 7
			if err := eng.TrainStream(ds, StreamConfig{ChunkRows: chunk}); err != nil {
				t.Fatal(err)
			}
			var src dataset.Source = dataset.NewSliceSource(ds)
			if tc.delay > 0 {
				src = &slowSource{inner: src, delay: tc.delay}
			}
			got, err := eng.RunStream(src, ModeTest, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, want, got, tc.name)

			st := eng.LastStream
			if !st.Pipelined || st.Chunks == 0 {
				t.Fatalf("LastStream not populated: %+v", st)
			}
			if st.PeakInFlightBytes <= 0 {
				t.Error("PeakInFlightBytes not tracked")
			}
			bound := int64(2*cfg.PipelineDepth+3) * int64(maxChunkWire(ds, chunk))
			if st.PeakInFlightBytes > bound {
				t.Errorf("in-flight bytes %d exceed O(depth×chunk) bound %d", st.PeakInFlightBytes, bound)
			}
			if tc.delay > 0 && st.OpsStallNS == 0 {
				t.Error("slow source starved the ops goroutine but OpsStallNS is zero")
			}
			if tc.delay == 0 && st.SourceStallNS == 0 {
				t.Error("slow sink should have stalled the source but SourceStallNS is zero")
			}
		})
	}
}

// TestStreamPipelineErrorEquivalence pins the failure contract: a staged
// pass reports the same error as depth 0 — the first failing op in
// stream order, identically wrapped — however far ahead the ops stage
// had run.
func TestStreamPipelineErrorEquivalence(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	p := badFilterPipeline()
	seq := NewEngine(p)
	seqErr := seq.TrainStream(ds, StreamConfig{ChunkRows: 64})
	if seqErr == nil {
		t.Fatal("depth-0 run should have failed")
	}
	for _, shape := range streamExecShapes[1:] {
		shape.ChunkRows = 64
		pe := NewEngine(p)
		pipErr := pe.TrainStream(ds, shape)
		if pipErr == nil {
			t.Fatalf("depth %d run should have failed", shape.PipelineDepth)
		}
		if seqErr.Error() != pipErr.Error() {
			t.Errorf("error mismatch (depth %d):\ndepth 0: %v\nstaged:  %v", shape.PipelineDepth, seqErr, pipErr)
		}
	}
}

// badFilterPipeline fails on the first chunk: the filter references a
// column field_extract never produced. filter is row-local and order-free,
// so the error surfaces in the ops stage and travels to the sink with its
// job.
func badFilterPipeline() *Pipeline {
	return &Pipeline{
		Name:        "stream-bad-filter",
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

func (s *slowEOFSource) Err() error { return s.inner.Err() }

// trackedSource gives every chunk it hands out a counted backing
// reference and counts the recycles, so a run can be held to the release
// contract: each delivered chunk is recycled once and its reference
// released once, however the run ended.
type trackedSource struct {
	inner interface {
		dataset.Source
		dataset.Recycler
	}
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

func (s *trackedSource) Err() error { return s.inner.Err() }

func (s *trackedSource) Recycle(ck dataset.Chunk) {
	s.recycled.Add(1)
	s.inner.Recycle(ck)
}

// registerPanicOp registers test_panic for the duration of the test: an
// order-free row-local op that passes its frame through until the chunk
// starting at packet 64, where it panics.
func registerPanicOp(t *testing.T) {
	t.Helper()
	register("test_panic", "panics at a fixed chunk (tests only)",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classRowLocal},
		func(ctx *opCtx, in []Value, _ params) (Value, error) {
			if ctx.stream != nil && ctx.stream.base == 64 {
				panic("test_panic at packet 64")
			}
			return in[0], nil
		})
	t.Cleanup(func() { delete(opRegistry, "test_panic") })
}

// panicPipeline is badFilterPipeline with test_panic in the filter's
// place: the ops stage panics instead of failing.
func panicPipeline() *Pipeline {
	p := badFilterPipeline()
	p.Name = "stream-panic"
	p.Ops[1] = OpSpec{Func: "test_panic", Input: []string{"X"}, Output: "Xf"}
	return p
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base: a stage goroutine still running after RunStream returned is a
// leak.
func waitGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the pass, %d before", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamErrorUnwindReleasesChunks is the unwind regression test:
// when an op error or an op's panic stops a pass mid-stream, every chunk
// the source handed out must still be recycled and have its backing
// reference released, exactly once — a stranded chunk pins a mapped
// capture for the life of the process — and no stage goroutine may
// outlive the pass. A panicking order-free op fails the pass with the
// same error at every depth, worded like an op error. Repeated runs make
// the racy unwind branches (the ops goroutine's select between a ready
// send and the closed done channel) all but certain to be taken.
func TestStreamErrorUnwindReleasesChunks(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	registerPanicOp(t)
	base := runtime.NumGoroutine()
	for _, p := range []*Pipeline{badFilterPipeline(), panicPipeline()} {
		var first error
		for _, shape := range streamExecShapes {
			shape.ChunkRows = 16
			for i := 0; i < 10; i++ {
				label := fmt.Sprintf("%s, depth %d, run %d", p.Name, shape.PipelineDepth, i)
				src := &trackedSource{inner: dataset.NewSliceSource(ds)}
				eng := NewEngine(p)
				eng.Seed = 7
				_, err := eng.RunStream(src, ModeTrain, shape)
				if err == nil {
					t.Fatalf("%s: the pass should have failed", label)
				}
				if first == nil {
					first = err
				} else if err.Error() != first.Error() {
					t.Fatalf("%s: error %q, at depth 0 %q", label, err, first)
				}
				emitted, recycled, released := src.emitted.Load(), src.recycled.Load(), src.released.Load()
				if emitted == 0 {
					t.Fatalf("%s: the source handed out no chunk", label)
				}
				if recycled != emitted || released != emitted {
					t.Fatalf("%s: %d chunks handed out, %d recycled, %d released", label, emitted, recycled, released)
				}
				waitGoroutines(t, base, label)
			}
		}
		if p.Name == "stream-panic" && first.Error() != "core: op 1 (test_panic -> Xf): panic: test_panic at packet 64" {
			t.Errorf("a panicking op failed the pass with %q", first)
		}
	}
}

// panicSource panics in Next once it has handed out n chunks.
type panicSource struct {
	trackedSource
	n int
}

func (s *panicSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	if s.emitted.Load() == int64(s.n) {
		panic("capture reader exploded")
	}
	return s.trackedSource.Next(maxRows, maxBytes)
}

// TestStreamPanicUnwinds covers the two panics that do not start in an
// order-free op. A panicking source on the pump goroutine ends a staged
// pass with a packet-source error instead of killing the process; at
// depth 0 it reaches the caller as a panic, as everything raised on the
// caller's goroutine does. A panic in the sink (here the AfterChunk hook)
// reaches the caller at every depth, after the unwind: every chunk
// released once, no stage goroutine left.
func TestStreamPanicUnwinds(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	base := runtime.NumGoroutine()
	balanced := func(src *trackedSource, label string) {
		t.Helper()
		emitted, recycled, released := src.emitted.Load(), src.recycled.Load(), src.released.Load()
		if emitted == 0 || recycled != emitted || released != emitted {
			t.Fatalf("%s: %d chunks handed out, %d recycled, %d released", label, emitted, recycled, released)
		}
		waitGoroutines(t, base, label)
	}
	// recovered runs the pass and returns what it panicked with, if anything.
	recovered := func(src dataset.Source, cfg StreamConfig) (v any, err error) {
		defer func() { v = recover() }()
		eng := NewEngine(fieldPipeline())
		eng.Seed = 7
		_, err = eng.RunStream(src, ModeTrain, cfg)
		return nil, err
	}
	for _, shape := range streamExecShapes {
		shape.ChunkRows = 16
		label := fmt.Sprintf("source panic, depth %d", shape.PipelineDepth)
		src := &panicSource{trackedSource{inner: dataset.NewSliceSource(ds)}, 3}
		v, err := recovered(src, shape)
		switch {
		case shape.PipelineDepth == 0 && v == nil:
			t.Fatalf("%s: the panic did not reach the caller (err %v)", label, err)
		case shape.PipelineDepth > 0 && (v != nil || err == nil || !strings.Contains(err.Error(), "core: packet source: source panicked: capture reader exploded")):
			t.Fatalf("%s: panicked with %v, failed with %v", label, v, err)
		}
		balanced(&src.trackedSource, label)

		label = fmt.Sprintf("sink panic, depth %d", shape.PipelineDepth)
		tracked := &trackedSource{inner: dataset.NewSliceSource(ds)}
		shape.Hooks = &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
			if up.Seq == 2 {
				panic("alert sink exploded")
			}
			return nil
		}}
		if v, err := recovered(tracked, shape); v != "alert sink exploded" {
			t.Fatalf("%s: panicked with %v, failed with %v", label, v, err)
		}
		balanced(tracked, label)
	}
}

// TestTruncatedCaptureUnwinds: a mapped capture truncated mid-pass (a
// copytruncate of a watched file) faults on whichever stage next reads
// its bytes. The fault unwinds the pass like any panic instead of
// killing the process with SIGBUS. At depth 0 every stage is the
// caller's goroutine, so it reaches the caller as a runtime error.
// Staged, the stage that reads past the cut first depends on
// scheduling: the source (a packet-source error), the ops goroutine (an
// op error) or the sink (a panic to the caller); each carries the
// runtime error. Two pipelines vary where the bytes are read: with iat
// field_extract is an ordered op, without it a worker one. Every chunk
// is released, no stage goroutine is left, and the mapping goes with the
// source. The capture is longer than the 2d+3 chunks a staged pass
// holds, so a stage must read past the cut.
func TestTruncatedCaptureUnwinds(t *testing.T) {
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.05)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Packets {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	workerFields := fieldPipeline()
	workerFields.Ops[0].Params = map[string]any{"fields": []any{"ts", "len", "ttl", "dst_port", "tcp_syn"}}
	base, mappings := runtime.NumGoroutine(), pcap.OpenMappings()
	const fault = "runtime error: invalid memory address"
	for _, p := range []*Pipeline{fieldPipeline(), workerFields} {
		for _, depth := range []int{0, 2} {
			label := fmt.Sprintf("%v, depth %d", p.Ops[0].Params["fields"], depth)
			cfg := StreamConfig{ChunkRows: 16, PipelineDepth: depth}
			if n := len(ds.Packets); n <= (2*depth+3)*cfg.ChunkRows {
				t.Fatalf("%s: %d packets fit in the chunks a pass holds", label, n)
			}
			path := filepath.Join(t.TempDir(), "capture.pcap")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := dataset.NewPcapSource("capture", f, dataset.Packet)
			if err != nil {
				t.Fatal(err)
			}
			if mapped.DecodeMode() != "mmap+lazy" {
				t.Skip("captures are not mapped on this platform")
			}
			src := &trackedSource{inner: mapped}
			cfg.Hooks = &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
				if up.Seq == 0 {
					return os.Truncate(path, 0)
				}
				return nil
			}}
			var v any
			func() {
				defer func() { v = recover() }()
				eng := NewEngine(p)
				eng.Seed = 7
				_, err = eng.RunStream(src, ModeTrain, cfg)
			}()
			switch re, isRuntime := v.(runtime.Error); {
			case v != nil && (!isRuntime || !strings.Contains(re.Error(), fault)):
				t.Fatalf("%s: panicked with %v, want the fault", label, v)
			case v == nil && depth == 0:
				t.Fatalf("%s: failed with %v; want the fault to reach the caller as a panic", label, err)
			case v == nil && (err == nil || !strings.Contains(err.Error(), fault)):
				t.Fatalf("%s: failed with %v, want the fault", label, err)
			}
			emitted, recycled, released := src.emitted.Load(), src.recycled.Load(), src.released.Load()
			if emitted == 0 || recycled != emitted || released != emitted {
				t.Fatalf("%s: %d chunks handed out, %d recycled, %d released", label, emitted, recycled, released)
			}
			waitGoroutines(t, base, label)
			if err := mapped.Close(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if got := pcap.OpenMappings(); got != mappings {
				t.Fatalf("%s: %d live mappings after Close, want the baseline %d", label, got, mappings)
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
	cfg := StreamConfig{ChunkRows: len(ds.Packets), PipelineDepth: 2}
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
	for _, shape := range streamExecShapes[1:] {
		shape.ChunkRows = 16
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
			t.Errorf("sink op error missing (depth %d): %v", shape.PipelineDepth, err)
		}
		if !errors.Is(err, errTruncated) || !strings.Contains(err.Error(), "packet source") {
			t.Errorf("source error missing (depth %d): %v", shape.PipelineDepth, err)
		}
	}

	// A clean pipeline over the same dying source still reports just the
	// source failure.
	src := &failingSource{inner: dataset.NewSliceSource(ds), failAt: 2}
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	_, err := eng.RunStream(src, ModeTrain, StreamConfig{ChunkRows: 16, PipelineDepth: 2})
	if !errors.Is(err, errTruncated) {
		t.Errorf("source-only failure not surfaced: %v", err)
	}
}

// TestStreamPipelinedEmptyDataset mirrors TestStreamEmptyDataset for the
// staged pipeline: an empty trace fails exactly like batch.
func TestStreamPipelinedEmptyDataset(t *testing.T) {
	ds := &dataset.Labeled{Name: "empty", Granularity: dataset.Packet}
	p := fieldPipeline()
	be := NewEngine(p)
	_, berr := refRun(be, ds, ModeTrain)
	se := NewEngine(p)
	serr := se.TrainStream(ds, StreamConfig{ChunkRows: 64, PipelineDepth: 2})
	if (berr == nil) != (serr == nil) {
		t.Fatalf("batch err %v vs pipelined err %v", berr, serr)
	}
	if berr != nil && serr != nil && berr.Error() != serr.Error() {
		t.Fatalf("error mismatch:\nbatch:     %v\npipelined: %v", berr, serr)
	}
}

// noRecycleSource hides the wrapped source's Recycler so a run over the
// same capture allocates every packet buffer fresh (the comparison
// baseline for the pooling regression test).
type noRecycleSource struct {
	inner *dataset.PcapSource
}

func (s *noRecycleSource) Meta() dataset.SourceMeta { return s.inner.Meta() }

func (s *noRecycleSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	return s.inner.Next(maxRows, maxBytes)
}

func (s *noRecycleSource) Reset() error { return s.inner.Reset() }

func (s *noRecycleSource) Err() error { return s.inner.Err() }

// TestStreamPooledChunkAllocs is the allocation regression test for the
// buffer pool chain (pcap → dataset → core): with a recycling source and
// a fully streamed pipeline, steady-state packet buffers come from the
// pool, so a pass over the capture must allocate markedly less than the
// same pass with recycling hidden — the wire bytes no longer hit the
// allocator per chunk.
func TestStreamPooledChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; allocation thresholds do not hold")
	}
	spec, ok := dataset.Get("P0")
	if !ok {
		t.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.1)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Packets {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	br, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := br.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wire := 0
	for _, p := range decoded {
		wire += p.WireLen()
	}
	// ~40 chunks regardless of trace scale, so most chunks run against a
	// warmed pool even with several chunks in flight.
	chunk := len(decoded)/40 + 1

	// No iat: the whole test pass runs in the ops stage and retains nothing,
	// which is exactly the recycling-eligible shape.
	p := &Pipeline{
		Name:        "stream-pool",
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

	// The pools (packet buffers, chunk jobs) start empty, so the first
	// pass over a capture allocates everything regardless of recycling.
	// Warm each source with one pass, then measure the steady-state pass.
	// GC stays off during measurement so sync.Pool contents are not
	// trimmed mid-comparison.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(cfg StreamConfig, hide bool) (uint64, *EvalResult) {
		ps, err := dataset.NewPcapSource("mem.pcap", bytes.NewReader(raw), dataset.Packet)
		if err != nil {
			t.Fatal(err)
		}
		var src dataset.Source = ps
		if hide {
			src = &noRecycleSource{inner: ps}
		}
		if _, err := eng.RunStream(src, ModeTest, cfg); err != nil {
			t.Fatal(err)
		}
		if err := ps.Reset(); err != nil {
			t.Fatal(err)
		}
		before := heapAllocBytes()
		res, err := eng.RunStream(src, ModeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return heapAllocBytes() - before, res
	}

	seqCfg := StreamConfig{ChunkRows: chunk}
	pipeCfg := StreamConfig{ChunkRows: chunk, PipelineDepth: 2}

	pooledB, pooledRes := run(seqCfg, false)
	freshB, freshRes := run(seqCfg, true)
	pipeB, pipeRes := run(pipeCfg, false)

	requireEqualResults(t, pooledRes, freshRes, "pooled vs fresh")
	requireEqualResults(t, pooledRes, pipeRes, "pooled vs pipelined")

	// The pool's own request and reuse counts are pcap's to test
	// (TestViewsRecordPoolRoundTrip); here reuse shows as the heap it saves.
	if pooledB >= freshB {
		t.Errorf("recycling did not reduce allocations: pooled %d B >= fresh %d B", pooledB, freshB)
	}
	if saved := int64(freshB) - int64(pooledB); saved < int64(wire)/2 {
		t.Errorf("recycling saved only %d B of %d wire bytes; pooled chunk buffers are not being reused", saved, wire)
	}
	if pipeB >= freshB {
		t.Errorf("pipelined recycling did not reduce allocations: %d B >= fresh %d B", pipeB, freshB)
	}
}

// TestStreamShapeIsWhatWasAsked: RunStream never rewrites its config. A
// plain, a hooked and an online (prequential) test pass each run at
// exactly the depth that was requested, and flows whose packets straddle
// many chunk boundaries assemble as in batch at every depth (the
// EvalResult of a connection-granularity pipeline is a function of the
// assembled conn log, so bit-equality pins the log itself; the tree
// cannot partial-fit, so the online pass only scores).
func TestStreamShapeIsWhatWasAsked(t *testing.T) {
	spec, ok := dataset.Get("F0")
	if !ok || spec.Granularity != dataset.ConnectionG {
		t.Fatal("F0 is not a registered connection dataset")
	}
	ds := spec.Generate(0.05)
	p := flowPipeline("decision_tree", map[string]any{"max_depth": 6})
	want := batchRun(t, p, ds)
	for _, shape := range streamExecShapes {
		for _, v := range []string{"plain", "hooked", "online"} {
			cfg := shape
			cfg.ChunkRows = 16 // tiny chunks: nearly every flow spans several
			cfg.Online = v == "online"
			if v == "hooked" {
				cfg.Hooks = &StreamHooks{AfterChunk: func(ChunkUpdate) error { return nil }}
			}
			label := fmt.Sprintf("%s, depth %d", v, shape.PipelineDepth)
			eng := NewEngine(p)
			eng.Seed = 7
			train := cfg
			train.Online = false
			if err := eng.TrainStream(ds, train); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var got *EvalResult
			if v == "hooked" {
				// Every verdict of a flow pipeline is deferred, so every
				// row arrives in a flush update.
				got = testStreamHooked(t, eng, ds, cfg, nil)
			} else {
				var err error
				if got, err = eng.TestStream(ds, cfg); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			ls := eng.LastStream
			if ls.Pipelined != (shape.PipelineDepth > 0) || ls.Depth != shape.PipelineDepth {
				t.Errorf("%s: ran pipelined=%v depth=%d", label, ls.Pipelined, ls.Depth)
			}
			requireEqualResults(t, want, got, label)
		}
	}
}

// TestStreamRefusesWorkers: the ops stage is one goroutine, so a config
// asking for more fails before any chunk is cut, naming the field; 0 and
// 1 both mean one.
func TestStreamRefusesWorkers(t *testing.T) {
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.05)
	for _, w := range []int{0, 1, 2} {
		src := &trackedSource{inner: dataset.NewSliceSource(ds)}
		_, err := NewEngine(fieldPipeline()).RunStream(src, ModeTrain, StreamConfig{ChunkRows: 64, PipelineDepth: 2, Workers: w})
		switch {
		case w <= 1 && err != nil:
			t.Errorf("Workers %d: %v", w, err)
		case w > 1 && (err == nil || !strings.Contains(err.Error(), "StreamConfig.Workers")):
			t.Errorf("Workers %d: error %v, want one naming StreamConfig.Workers", w, err)
		case w > 1 && src.emitted.Load() != 0:
			t.Errorf("Workers %d: refused after cutting %d chunks", w, src.emitted.Load())
		}
	}
}

// TestStreamRefusesOnlineTrain: a train pass fits whole, so Online on
// one fails before any chunk is cut, naming the field, at every depth and
// through TrainStream too; Online on a test pass is prequential.
func TestStreamRefusesOnlineTrain(t *testing.T) {
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.05)
	for _, shape := range streamExecShapes {
		cfg := shape
		cfg.ChunkRows, cfg.Online = 64, true
		src := &trackedSource{inner: dataset.NewSliceSource(ds)}
		_, err := NewEngine(fieldPipeline()).RunStream(src, ModeTrain, cfg)
		if err == nil || !strings.Contains(err.Error(), "StreamConfig.Online") {
			t.Errorf("depth %d: error %v, want one naming StreamConfig.Online", shape.PipelineDepth, err)
		}
		if n := src.emitted.Load(); n != 0 {
			t.Errorf("depth %d: refused after cutting %d chunks", shape.PipelineDepth, n)
		}
		eng := NewEngine(fieldPipeline())
		if err := eng.TrainStream(ds, cfg); err == nil || !strings.Contains(err.Error(), "StreamConfig.Online") {
			t.Errorf("depth %d: TrainStream error %v, want one naming StreamConfig.Online", shape.PipelineDepth, err)
		}
		if err := eng.TrainStream(ds, shape); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.TestStream(ds, cfg); err != nil {
			t.Errorf("depth %d: online test pass: %v", shape.PipelineDepth, err)
		}
	}
}
