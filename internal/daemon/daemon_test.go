package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

// testDS generates the shared fixture trace.
func testDS(t *testing.T) *dataset.Labeled {
	t.Helper()
	spec, ok := dataset.Get("F1")
	if !ok {
		t.Fatal("dataset F1 not registered")
	}
	return spec.Generate(0.05)
}

// testPipeline is a packet-granularity pipeline whose every op streams,
// so all verdicts are emitted chunk-by-chunk.
func testPipeline() *core.Pipeline {
	return &core.Pipeline{
		Name:        "daemon-pkt-dt",
		Granularity: "packet",
		Ops: []core.OpSpec{
			{Func: "field_extract", Input: []string{core.InputName}, Output: "X",
				Params: map[string]any{"fields": []any{"ts", "len", "ttl", "dst_port", "tcp_syn", "iat"}}},
			{Func: "log_scale", Input: []string{"X"}, Output: "Xl"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "Xl"}, Output: "fit"},
		},
	}
}

// trainedEngine trains a fresh engine on ds with a fixed seed, so every
// call yields an identically-behaving model.
func trainedEngine(t *testing.T, ds *dataset.Labeled) *core.Engine {
	t.Helper()
	eng := core.NewEngine(testPipeline())
	eng.Seed = 7
	if err := eng.TrainStream(ds, core.StreamConfig{ChunkRows: 256}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// chunkRowsFor picks a chunk size yielding about `chunks` chunks over n
// packets.
func chunkRowsFor(n, chunks int) int {
	r := n / chunks
	if r < 1 {
		r = 1
	}
	return r
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// parseAlerts decodes a JSONL alert stream.
func parseAlerts(t *testing.T, data []byte) []Alert {
	t.Helper()
	var out []Alert
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var a Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad alert line %q: %v", sc.Text(), err)
		}
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// gateSource releases one inner chunk per permit, letting tests place
// control actions on exact chunk boundaries. It implements Drainer and
// Reset, so drain and reload paths run against it too.
type gateSource struct {
	inner   dataset.Source
	permits chan struct{}

	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	emitted bool
}

func newGate(inner dataset.Source) *gateSource {
	return &gateSource{inner: inner, permits: make(chan struct{}, 4096), stop: make(chan struct{})}
}

func (g *gateSource) allow(n int) {
	for i := 0; i < n; i++ {
		g.permits <- struct{}{}
	}
}

func (g *gateSource) Meta() dataset.SourceMeta { return g.inner.Meta() }

func (g *gateSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	g.mu.Lock()
	stopCh, stopped := g.stop, g.stopped
	g.mu.Unlock()
	if stopped {
		return g.end()
	}
	select {
	case <-g.permits:
	case <-stopCh:
		return g.end()
	}
	ck, ok := g.inner.Next(maxRows, maxBytes)
	if !ok {
		return g.end()
	}
	g.mu.Lock()
	g.emitted = true
	g.mu.Unlock()
	return ck, true
}

func (g *gateSource) end() (dataset.Chunk, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.emitted {
		g.emitted = true
		return dataset.Chunk{}, true
	}
	return dataset.Chunk{}, false
}

func (g *gateSource) Reset() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.inner.Reset(); err != nil {
		return err
	}
	if g.stopped {
		g.stop = make(chan struct{})
		g.stopped = false
	}
	g.emitted = false
	return nil
}

func (g *gateSource) Drain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.stopped {
		g.stopped = true
		close(g.stop)
	}
}

// TestRunToCompletionConnLog pins the conn-log acceptance bar: a
// pipeline that consumes its whole source produces a conn-log
// bit-identical to the batch driver (flow.Connections) over the same
// trace, and its alert lines cover every verdict of the equivalent batch
// run in order — zero dropped, zero double-scored.
func TestRunToCompletionConnLog(t *testing.T) {
	ds := testDS(t)
	want, err := trainedEngine(t, ds).TestStream(ds, core.StreamConfig{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wantLog bytes.Buffer
	if err := flow.WriteConnLog(&wantLog, flow.Connections(decodedPackets(ds.Link, ds.Packets), flow.Options{})); err != nil {
		t.Fatal(err)
	}

	d := New(Config{Metrics: obs.NewMetrics()})
	var alerts, connlog bytes.Buffer
	p, err := d.Start(PipeConfig{
		Name:    "full",
		Engine:  trainedEngine(t, ds),
		Source:  NewReplaySource(dataset.NewSliceSource(ds), 0, 0),
		Stream:  core.StreamConfig{ChunkRows: 64, PipelineDepth: 2},
		Alerts:  &alerts,
		ConnLog: &connlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-p.Done()
	if err := p.Drain(); err != nil { // drain after natural end: same terminal state
		t.Fatal(err)
	}
	st := p.Status()
	if st.State != "stopped" {
		t.Fatalf("state = %s, want stopped", st.State)
	}
	// A hooked pass runs at the shape it was configured with.
	if want := (StreamShape{Pipelined: true, Depth: 2}); st.Stream == nil || *st.Stream != want {
		t.Fatalf("status stream shape = %+v, want %+v", st.Stream, want)
	}
	if !bytes.Equal(connlog.Bytes(), wantLog.Bytes()) {
		t.Fatalf("conn-log differs from batch driver: %d vs %d bytes", connlog.Len(), wantLog.Len())
	}
	got := parseAlerts(t, alerts.Bytes())
	if len(got) != len(want.Pred) {
		t.Fatalf("alert lines = %d, want %d (dropped or double-scored verdicts)", len(got), len(want.Pred))
	}
	for i, a := range got {
		if a.Pred != want.Pred[i] || a.Truth != want.Truth[i] {
			t.Fatalf("alert %d = pred %d truth %d, batch %d/%d", i, a.Pred, a.Truth, want.Pred[i], want.Truth[i])
		}
		if a.ModelGen != 1 || a.Pipeline != "full" || a.Unit != "packet" {
			t.Fatalf("alert %d metadata off: %+v", i, a)
		}
	}
	if int64(len(got)) != st.Verdicts || st.Packets != int64(len(ds.Packets)) {
		t.Fatalf("status counters %+v disagree with %d alerts / %d packets", st, len(got), len(ds.Packets))
	}
}

// TestPanickingPipelineFailsAlone: a model that loads cleanly can still
// fault at scoring time — a forest splitting on feature 1000 indexes past
// this pipeline's six-column rows. Swapped into one of two staged
// pipelines of a daemon, it must fail that pipeline only: state failed,
// the panic and the pipeline's name in its status, its alert sink
// flushed — while the neighbour keeps producing verdicts and drains
// cleanly. The poisoned pipeline reads a memory-mapped capture, and the
// panic strikes with chunks queued behind the scoring goroutine: once
// both pipelines are done the engine's stage goroutines are gone and
// every chunk's mapping reference is released, so the goroutine count
// and pcap.OpenMappings return to their baselines.
func TestPanickingPipelineFailsAlone(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 20)
	goroutines, mappings := runtime.NumGoroutine(), pcap.OpenMappings()
	capture := filepath.Join(t.TempDir(), "poisoned.pcap")
	writePcap(t, capture, ds.Link, ds.Packets)
	f, err := os.Open(capture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mapped, err := dataset.NewPcapSource("poisoned.pcap", f, dataset.Packet)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.EnableChunkRefs() {
		t.Log("no mmap on this platform: the mapping baseline holds trivially")
	}
	d := New(Config{Metrics: obs.NewMetrics()})
	var alerts bytes.Buffer
	start := func(name string, src dataset.Source, alerts *bytes.Buffer) (*Pipe, *gateSource) {
		gate := newGate(src)
		cfg := PipeConfig{Name: name, Engine: trainedEngine(t, ds), Source: gate, Stream: core.StreamConfig{ChunkRows: rows, PipelineDepth: 2}}
		if alerts != nil {
			cfg.Alerts = alerts
		}
		p, err := d.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p, gate
	}
	poisoned, pgate := start("poisoned", mapped, &alerts)
	neighbour, ngate := start("neighbour", dataset.NewSliceSource(ds), nil)
	pgate.allow(2)
	ngate.allow(2)
	waitFor(t, 5*time.Second, "both pipelines to score 2 chunks", func() bool {
		return poisoned.Status().Chunks >= 2 && neighbour.Status().Chunks >= 2
	})

	const leaf = `{"f":-1,"t":0,"l":0,"r":0,"p":[1,0]}`
	clf, err := mlkit.UnmarshalModel([]byte(`{"version":1,"type":"random_forest","data":{"classes":2,"trees":[{"classes":2,"nodes":[{"f":1000,"t":0.5,"l":1,"r":2},` + leaf + `,` + leaf + `]}]}}`))
	if err != nil {
		t.Fatalf("the poisoned forest is well-formed and must load: %v", err)
	}
	swapped := make(chan error, 1)
	go func() { swapped <- poisoned.Swap(clf, SwapOptions{}) }()
	// The swap attaches at a chunk boundary: feed chunks until it has.
	for attached := false; !attached; {
		pgate.allow(1)
		select {
		case err := <-swapped:
			if err != nil {
				t.Fatalf("swap: %v", err)
			}
			attached = true
		case <-time.After(50 * time.Millisecond):
			// That chunk was absorbed before the request was queued.
		}
	}
	// The next chunk is shadow-scored by the forest and panics, with two
	// more cut behind it.
	pgate.allow(3)
	select {
	case <-poisoned.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("poisoned pipeline never stopped")
	}
	st := poisoned.Status()
	if st.State != "failed" {
		t.Fatalf("poisoned pipeline state = %s, want failed", st.State)
	}
	for _, want := range []string{`"poisoned"`, "panicked", "mlkit.", "index out of range [1000]"} {
		if !strings.Contains(st.Error, want) {
			t.Errorf("status error %q does not mention %q", st.Error, want)
		}
	}
	if got := int64(len(parseAlerts(t, alerts.Bytes()))); got != st.Alerts || got == 0 {
		t.Fatalf("alert sink holds %d lines, status counts %d: finalize must still flush", got, st.Alerts)
	}

	before := neighbour.Status().Verdicts
	ngate.allow(3)
	waitFor(t, 5*time.Second, "the neighbour to keep scoring", func() bool {
		return neighbour.Status().Chunks >= 5
	})
	if err := neighbour.Drain(); err != nil {
		t.Fatalf("neighbour drain: %v", err)
	}
	if st := neighbour.Status(); st.State != "stopped" || st.Verdicts <= before {
		t.Fatalf("neighbour status = %+v, want stopped with verdicts past %d", st, before)
	}

	if err := mapped.Close(); err != nil { // the source's own reference
		t.Fatal(err)
	}
	if got := pcap.OpenMappings(); got != mappings {
		t.Errorf("live mappings = %d after both pipelines ended, want the baseline %d", got, mappings)
	}
	waitFor(t, 5*time.Second, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
}

// TestDrainMidStreamConnLog drains a gated pipeline partway through the
// trace and requires the conn-log to be bit-identical to the batch
// driver over exactly the ingested prefix.
func TestDrainMidStreamConnLog(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 12)
	gate := newGate(dataset.NewSliceSource(ds))
	var connlog bytes.Buffer
	d := New(Config{})
	p, err := d.Start(PipeConfig{
		Name:    "partial",
		Engine:  trainedEngine(t, ds),
		Source:  gate,
		Stream:  core.StreamConfig{ChunkRows: rows},
		ConnLog: &connlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.allow(3)
	waitFor(t, 5*time.Second, "3 chunks", func() bool { return p.Status().Chunks >= 3 })
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	n := int(p.Status().Packets)
	if n == 0 || n >= len(ds.Packets) {
		t.Fatalf("ingested %d of %d packets; drain should truncate mid-stream", n, len(ds.Packets))
	}
	var wantLog bytes.Buffer
	if err := flow.WriteConnLog(&wantLog, flow.Connections(decodedPackets(ds.Link, ds.Packets[:n]), flow.Options{})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(connlog.Bytes(), wantLog.Bytes()) {
		t.Fatalf("drained conn-log differs from batch over the %d-packet prefix", n)
	}
}

// invertClf flips a classifier's verdicts — an unmistakably different
// swap candidate.
type invertClf struct{ inner mlkit.Classifier }

func (c invertClf) Fit(X [][]float64, y []int) error { return c.inner.Fit(X, y) }

func (c invertClf) Predict(X [][]float64) []int {
	out := c.inner.Predict(X)
	for i := range out {
		out[i] = 1 - out[i]
	}
	return out
}

// TestHotSwapUnderLiveIngest is the tentpole regression: a hot swap
// under live ingest must drop no chunk, double-score no chunk, and
// attribute every verdict to exactly one model generation. An identical
// candidate auto-promotes (divergence 0); an inverted candidate
// auto-rolls-back (divergence 1 > 0).
func TestHotSwapUnderLiveIngest(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 16)
	want, err := trainedEngine(t, ds).TestStream(ds, core.StreamConfig{ChunkRows: rows})
	if err != nil {
		t.Fatal(err)
	}
	sameModel, _ := trainedEngine(t, ds).TrainedModel()

	gate := newGate(dataset.NewSliceSource(ds))
	var alerts bytes.Buffer
	d := New(Config{Metrics: obs.NewMetrics(), Tracer: obs.NewTracer()})
	p, err := d.Start(PipeConfig{
		Name:   "swap",
		Engine: trainedEngine(t, ds),
		Source: gate,
		Stream: core.StreamConfig{ChunkRows: rows, PipelineDepth: 2},
		Alerts: &alerts,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: promote an identical candidate after 2 shadow chunks.
	gate.allow(2)
	waitFor(t, 5*time.Second, "2 chunks", func() bool { return p.Status().Chunks >= 2 })
	swapDone := make(chan error, 1)
	go func() {
		swapDone <- p.Swap(sameModel, SwapOptions{AutoDecide: true, ShadowChunks: 2, MaxDisagree: 0})
	}()
	waitFor(t, 5*time.Second, "swap request queued", func() bool { return len(p.ctrl) > 0 })
	gate.allow(1) // boundary that applies the swap
	var swapErr error
	select {
	case swapErr = <-swapDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Swap did not apply at the next chunk boundary")
	}
	if swapErr != nil {
		t.Fatal(swapErr)
	}
	if st := p.Status(); !st.Shadowing {
		t.Fatalf("status after Swap = %+v, want shadowing", st)
	}
	gate.allow(2) // the two shadow-scored chunks; auto-promote follows
	waitFor(t, 5*time.Second, "promotion to generation 2", func() bool { return p.Status().ModelGeneration == 2 })

	// Phase 2: an inverted candidate must roll back (disagree 1 > 0).
	go func() {
		swapDone <- p.Swap(invertClf{sameModel}, SwapOptions{AutoDecide: true, ShadowChunks: 1, MaxDisagree: 0})
	}()
	waitFor(t, 5*time.Second, "second swap request queued", func() bool { return len(p.ctrl) > 0 })
	gate.allow(1)
	select {
	case swapErr = <-swapDone:
	case <-time.After(5 * time.Second):
		t.Fatal("second Swap did not apply")
	}
	if swapErr != nil {
		t.Fatal(swapErr)
	}
	gate.allow(1) // one shadow-scored chunk; auto-rollback follows
	waitFor(t, 5*time.Second, "rollback", func() bool {
		st := p.Status()
		return !st.Shadowing && st.LastSwap != nil && st.LastSwap.Outcome == "rolled_back"
	})
	if g := p.Status().ModelGeneration; g != 2 {
		t.Fatalf("generation after rollback = %d, want 2", g)
	}

	// Let the rest of the trace through; the stream ends naturally once
	// the inner source is exhausted (drain afterwards is a no-op).
	gate.allow(4096 - 7)
	waitFor(t, 10*time.Second, "full ingest", func() bool {
		return p.Status().Packets == int64(len(ds.Packets))
	})
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	got := parseAlerts(t, alerts.Bytes())
	if len(got) != len(want.Pred) {
		t.Fatalf("alert lines = %d, want %d (a chunk was dropped or double-scored)", len(got), len(want.Pred))
	}
	genBySeq := map[int]int{}
	lastSeq := -1
	sawGen2 := false
	for i, a := range got {
		if a.Pred != want.Pred[i] {
			t.Fatalf("alert %d pred = %d, batch %d", i, a.Pred, want.Pred[i])
		}
		if a.Seq < lastSeq {
			t.Fatalf("alert %d out of stream order: seq %d after %d", i, a.Seq, lastSeq)
		}
		lastSeq = a.Seq
		if g, ok := genBySeq[a.Seq]; ok && g != a.ModelGen {
			t.Fatalf("chunk %d scored by generations %d and %d — not exactly one model", a.Seq, g, a.ModelGen)
		}
		genBySeq[a.Seq] = a.ModelGen
		if a.ModelGen == 2 {
			sawGen2 = true
		} else if a.ModelGen != 1 {
			t.Fatalf("alert %d has generation %d", i, a.ModelGen)
		}
	}
	if !sawGen2 {
		t.Fatal("no verdicts attributed to the promoted generation")
	}

	// The swap surface is visible on /metrics.
	var prom bytes.Buffer
	if err := d.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lumen_daemon_swaps_total{outcome="promoted",pipeline="swap"} 1`,
		`lumen_daemon_swaps_total{outcome="rolled_back",pipeline="swap"} 1`,
		`lumen_daemon_model_generation{pipeline="swap"} 2`,
		`lumen_swap_divergence{pipeline="swap",stat="disagree_frac"} 1`,
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReloadDuringActiveIngest reloads a pipeline mid-pass: the current
// pass drains, the source resets, and scoring restarts from the top of
// the stream on the same goroutine.
func TestReloadDuringActiveIngest(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 12)
	gate := newGate(dataset.NewSliceSource(ds))
	var alerts bytes.Buffer
	d := New(Config{})
	p, err := d.Start(PipeConfig{
		Name:   "reload",
		Engine: trainedEngine(t, ds),
		Source: gate,
		Stream: core.StreamConfig{ChunkRows: rows},
		Alerts: &alerts,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.allow(3)
	waitFor(t, 5*time.Second, "3 chunks", func() bool { return p.Status().Chunks >= 3 })
	if err := p.Reload(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "second pass", func() bool { return p.Status().Reloads == 1 })
	gate.allow(4)
	waitFor(t, 5*time.Second, "chunks after reload", func() bool { return p.Status().Chunks >= 7 })
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Status()
	if st.Passes != 2 || st.Reloads != 1 || st.State != "stopped" || st.Error != "" {
		t.Fatalf("status after reload+drain = %+v", st)
	}
	// The alert stream must show the chunk sequence restarting.
	got := parseAlerts(t, alerts.Bytes())
	restarted := false
	for i := 1; i < len(got); i++ {
		if got[i].Seq < got[i-1].Seq {
			restarted = true
			break
		}
	}
	if !restarted {
		t.Fatal("alert stream never restarted at seq 0 after reload")
	}
	if int64(len(got)) != st.Verdicts {
		t.Fatalf("alert lines %d != verdict counter %d", len(got), st.Verdicts)
	}
}

// stallWriter blocks every Write until released — a stalled downstream
// alert consumer. stalled closes when the first Write arrives.
type stallWriter struct {
	release chan struct{}
	stalled chan struct{}
	once    sync.Once
	buf     bytes.Buffer
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	return w.buf.Write(p)
}

// TestDrainWithStalledSink pins the drain contract against a blocked
// alert sink: drain waits (no data loss, no timeout abort) and completes
// once the sink unblocks.
func TestDrainWithStalledSink(t *testing.T) {
	ds := testDS(t)
	want, err := trainedEngine(t, ds).TestStream(ds, core.StreamConfig{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	sink := &stallWriter{release: make(chan struct{}), stalled: make(chan struct{})}
	d := New(Config{})
	p, err := d.Start(PipeConfig{
		Name:   "stalled",
		Engine: trainedEngine(t, ds),
		Source: NewReplaySource(dataset.NewSliceSource(ds), 0, 0),
		Stream: core.StreamConfig{ChunkRows: 64},
		Alerts: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sink.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline never reached the stalled sink")
	}
	drained := make(chan error, 1)
	go func() { drained <- p.Drain() }()
	select {
	case err := <-drained:
		t.Fatalf("drain completed through a stalled sink (err %v)", err)
	case <-time.After(150 * time.Millisecond):
	}
	if st := p.Status().State; st != "draining" {
		t.Fatalf("state while stalled = %s, want draining", st)
	}
	close(sink.release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed after the sink unblocked")
	}
	// Drain stops ingest at the source, so only the chunks pulled before
	// the drain are scored — but none of them may be lost to the stall.
	st := p.Status()
	got := parseAlerts(t, sink.buf.Bytes())
	if int64(len(got)) != st.Verdicts || st.Verdicts == 0 {
		t.Fatalf("alerts after stall = %d lines, verdict counter %d (data lost)", len(got), st.Verdicts)
	}
	for i, a := range got {
		if a.Pred != want.Pred[i] {
			t.Fatalf("alert %d pred = %d, batch %d", i, a.Pred, want.Pred[i])
		}
	}
}

// TestDoubleStopIdempotent: repeated and concurrent drains all converge
// on the same terminal state, and control verbs on a stopped pipeline
// fail with ErrStopped.
func TestDoubleStopIdempotent(t *testing.T) {
	ds := testDS(t)
	d := New(Config{})
	p, err := d.Start(PipeConfig{
		Name:   "stop",
		Engine: trainedEngine(t, ds),
		Source: NewReplaySource(dataset.NewSliceSource(ds), 0, 0),
		Stream: core.StreamConfig{ChunkRows: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Drain()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent drain %d: %v", i, err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("repeated drain: %v", err)
	}
	if st := p.Status().State; st != "stopped" {
		t.Fatalf("state = %s, want stopped", st)
	}
	clf, _ := trainedEngine(t, ds).TrainedModel()
	if err := p.Swap(clf, SwapOptions{}); err != ErrStopped {
		t.Fatalf("Swap after stop = %v, want ErrStopped", err)
	}
	if err := p.Reload(); err != ErrStopped {
		t.Fatalf("Reload after stop = %v, want ErrStopped", err)
	}
	if err := p.Promote(); err != ErrStopped {
		t.Fatalf("Promote after stop = %v, want ErrStopped", err)
	}
}

// TestStartValidation pins the registration errors.
func TestStartValidation(t *testing.T) {
	ds := testDS(t)
	d := New(Config{})
	src := NewReplaySource(dataset.NewSliceSource(ds), 0, 0)
	if _, err := d.Start(PipeConfig{Engine: trainedEngine(t, ds), Source: src}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := d.Start(PipeConfig{Name: "x", Source: src}); err == nil {
		t.Fatal("nil engine accepted")
	}
	untrained := core.NewEngine(testPipeline())
	if _, err := d.Start(PipeConfig{Name: "x", Engine: untrained, Source: src}); err == nil {
		t.Fatal("untrained engine accepted")
	}
	hooked := core.StreamConfig{Hooks: &core.StreamHooks{AfterChunk: func(core.ChunkUpdate) error { return nil }}}
	if _, err := d.Start(PipeConfig{Name: "x", Engine: trainedEngine(t, ds), Source: src, Stream: hooked}); err == nil {
		t.Fatal("caller-supplied hooks accepted")
	}
	p, err := d.Start(PipeConfig{Name: "dup", Engine: trainedEngine(t, ds), Source: src, Stream: core.StreamConfig{ChunkRows: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start(PipeConfig{Name: "dup", Engine: trainedEngine(t, ds), Source: NewReplaySource(dataset.NewSliceSource(ds), 0, 0)}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := d.DrainAll(); err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprintf("%v", p.Name()) // exercise the tiny accessors
	<-p.Done()
}
