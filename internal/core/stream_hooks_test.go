package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
)

// hookShapes are the depths the hook contract covers.
var hookShapes = []StreamConfig{
	{ChunkRows: 64},
	{ChunkRows: 64, PipelineDepth: 2},
	{ChunkRows: 64, PipelineDepth: 4},
}

// testStreamHooked runs TestStream with an AfterChunk hook and states the
// hook contract: the rows of every update, in the order they were
// handed, joined, must equal the unhooked result bit for bit, and the
// pass returns nil. Chunks come in stream order; flush updates may come
// between them, as blocks of closed flows are scored, carry no chunk
// (Seq -1, Base 0, no views), and their unit indices run on without a
// gap from one row, and one block, to the next. The drift events of
// every update, flush updates included, are every event the pass
// counted. The rows are cloned inside the callback, the only place they
// are valid. each (optional) sees every update after its rows were
// taken; cfg.Hooks may preset the other hook fields.
func testStreamHooked(t *testing.T, eng *Engine, ds *dataset.Labeled, cfg StreamConfig, each func(ChunkUpdate) error) *EvalResult {
	t.Helper()
	hooks := StreamHooks{}
	if cfg.Hooks != nil {
		hooks = *cfg.Hooks
	}
	var parts []*EvalResult
	var flushIdx []int
	seq, drift := 0, 0
	hooks.AfterChunk = func(up ChunkUpdate) error {
		drift += len(up.Drift)
		switch {
		case up.Flush && (up.Seq != -1 || up.Base != 0 || up.Views != nil):
			t.Errorf("flush update carries a chunk: seq %d, base %d, %d views", up.Seq, up.Base, len(up.Views))
		case !up.Flush && up.Seq != seq:
			t.Errorf("chunk %d handed where chunk %d was due", up.Seq, seq)
		case !up.Flush:
			seq++
		}
		for _, res := range up.Results {
			parts = append(parts, cloneResult(res))
			if up.Flush {
				flushIdx = append(flushIdx, res.UnitIdx...)
			}
		}
		if each != nil {
			return each(up)
		}
		return nil
	}
	cfg.Hooks = &hooks
	tail, err := eng.TestStream(ds, cfg)
	if err != nil {
		t.Fatalf("hooked pass (depth %d): %v", cfg.PipelineDepth, err)
	}
	if tail != nil {
		t.Errorf("hooked pass (depth %d) returned %d rows besides those it handed out", cfg.PipelineDepth, len(tail.Pred))
	}
	if drift != eng.LastStream.DriftEvents {
		t.Errorf("hooked pass (depth %d) handed out %d drift events and counted %d", cfg.PipelineDepth, drift, eng.LastStream.DriftEvents)
	}
	for k := range flushIdx {
		if flushIdx[k] != flushIdx[0]+k {
			t.Fatalf("flush row %d has unit index %d after %d: the flush updates skip or reorder rows", k, flushIdx[k], flushIdx[k-1])
		}
	}
	return mergeResults(parts)
}

// mergeResults concatenates verdict batches in order: nil for none, and
// a column that is empty in every batch stays nil, as in the result of
// an unhooked pass.
func mergeResults(parts []*EvalResult) *EvalResult {
	if len(parts) == 0 {
		return nil
	}
	out := &EvalResult{Unit: parts[0].Unit}
	for _, p := range parts {
		out.Pred = append(out.Pred, p.Pred...)
		out.Truth = append(out.Truth, p.Truth...)
		out.Attacks = append(out.Attacks, p.Attacks...)
		out.Scores = append(out.Scores, p.Scores...)
		out.UnitIdx = append(out.UnitIdx, p.UnitIdx...)
	}
	return out
}

// cloneResult deep-copies a verdict batch, nil-ness of every column
// included.
func cloneResult(r *EvalResult) *EvalResult {
	return &EvalResult{
		Unit:    r.Unit,
		Pred:    slices.Clone(r.Pred),
		Truth:   slices.Clone(r.Truth),
		Attacks: slices.Clone(r.Attacks),
		Scores:  slices.Clone(r.Scores),
		UnitIdx: slices.Clone(r.UnitIdx),
	}
}

// TestAfterChunkHook verifies the per-chunk lifecycle hook at every
// depth: one call per chunk in stream order (no flush update: the plan
// streams fully), and per-chunk verdict rows that concatenate to exactly
// the unhooked result.
func TestAfterChunkHook(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.05)
	p := fieldPipeline()
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.TrainStream(ds, StreamConfig{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	want, err := eng.TestStream(ds, StreamConfig{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	for si, shape := range hookShapes {
		var seqs []int
		got := testStreamHooked(t, eng, ds, shape, func(up ChunkUpdate) error {
			seqs = append(seqs, up.Seq)
			return nil
		})
		requireEqualResults(t, want, got, fmt.Sprintf("hooked shape %d", si))
		if len(seqs) == 0 {
			t.Fatalf("shape %d: hook never ran", si)
		}
		for i, s := range seqs {
			if s != i {
				t.Fatalf("shape %d: hook saw seq %d at position %d (out of order or dropped)", si, s, i)
			}
		}
		if len(seqs) != eng.LastStream.Chunks {
			t.Errorf("shape %d: hook ran %d times for %d chunks", si, len(seqs), eng.LastStream.Chunks)
		}
	}
}

// loopSource replays its dataset laps times over: a long stream that
// costs no memory beyond the one dataset.
type loopSource struct {
	*dataset.SliceSource
	laps int
}

func (l *loopSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	for {
		ck, ok := l.SliceSource.Next(maxRows, maxBytes)
		if ok && ck.Len() > 0 {
			return ck, true
		}
		if l.laps--; l.laps <= 0 {
			return ck, ok
		}
		l.SliceSource.Reset()
	}
}

// TestHookedPassMemoryIsFlat: a hooked pass keeps no row it has handed
// to the hook, so its heap high-water mark over 8N packets of a replay
// sits within a fixed margin of the mark over N, whereas the unhooked
// pass, which owes its caller every row, grows with the stream and still
// returns the full result.
func TestHookedPassMemoryIsFlat(t *testing.T) {
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.3)
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	// The high-water mark samples the heap at chunk boundaries, garbage not
	// yet collected included. The hooked passes collect after every chunk,
	// so each sample is what they retain plus one chunk's garbage however
	// far a CPU-starved collector would otherwise fall behind; a tight
	// collector keeps the unhooked pass's mark to what it retains as well.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	const (
		lapsN  = 25
		margin = 1 << 20
	)
	n := lapsN * len(ds.Packets)
	// digest folds verdict rows into a running hash, so the hooked passes
	// can be compared with the unhooked result without keeping a row.
	digest := func(h hash.Hash, res *EvalResult) {
		for i := range res.Pred {
			fmt.Fprintln(h, res.Pred[i], res.Truth[i], res.UnitIdx[i], res.Attacks[i])
		}
	}
	rows, handed := 0, fnv.New64a()
	hooked := StreamConfig{ChunkRows: 256, Hooks: &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
		for _, res := range up.Results {
			rows += len(res.Pred)
			digest(handed, res)
		}
		runtime.GC()
		return nil
	}}}
	hwm := func(laps int, cfg StreamConfig) (uint64, *EvalResult) {
		runtime.GC()
		res, err := eng.RunStream(&loopSource{dataset.NewSliceSource(ds), laps}, ModeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng.LastStream.HWMBytes, res
	}
	short, _ := hwm(lapsN, hooked)
	handed.Reset()
	long, tail := hwm(8*lapsN, hooked)
	if tail != nil || rows != 9*n {
		t.Fatalf("hooked passes handed out %d rows (want %d) and returned a tail of %v", rows, 9*n, tail)
	}
	if long > short+margin {
		t.Errorf("hooked pass peaked at %d B over %d packets and %d B over %d: it retains rows it handed out", short, n, long, 8*n)
	}
	plain, full := hwm(8*lapsN, StreamConfig{ChunkRows: 256})
	returned := fnv.New64a()
	digest(returned, full)
	if len(full.Pred) != rows-n || !bytes.Equal(returned.Sum(nil), handed.Sum(nil)) {
		t.Fatalf("unhooked pass returned %d rows that differ from the %d the hook was handed over the same stream", len(full.Pred), rows-n)
	}
	if plain < long+margin {
		t.Errorf("unhooked pass peaked at %d B, hooked at %d B, over %d packets: the test no longer tells them apart", plain, long, 8*n)
	}
	t.Logf("N = %d packets: hooked %d B (N) / %d B (8N), unhooked %d B (8N)", n, short, long, plain)
}

// TestConnsClosedHook: a pass whose plan has a connection sink hands the
// sink's own connections to ConnsClosed, once, as batch assembly under
// the op's options yields them (their log is the judge), at every shape;
// a plan that assembles no connections hands on those of a log-only sink
// under the default options the same way, and the hook's error aborts
// the pass.
func TestConnsClosedHook(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.05)
	connLog := func(conns []*flow.Flow) string {
		var b bytes.Buffer
		if err := flow.WriteConnLog(&b, conns); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	p := flowPipeline("decision_tree", map[string]any{"max_depth": 6})
	p.Ops[0].Params["idle_timeout"] = 0.05
	pkts := decodedPackets(ds)
	want := connLog(flow.Connections(pkts, flow.Options{IdleTimeout: 50 * time.Millisecond}))
	if want == connLog(flow.Connections(pkts, flow.Options{})) {
		t.Fatal("fixture: a 50 ms idle timeout splits no connection of this trace")
	}
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	if pl, err := eng.StreamPlan(ModeTest); err != nil || pl.ConnSink != 0 {
		t.Fatalf("plan's connection sink = %d (%v), want op 0", pl.ConnSink, err)
	}
	boom := errors.New("log full")
	for si, shape := range hookShapes {
		var got []string
		shape.ChunkRows = 16
		shape.Hooks = &StreamHooks{ConnsClosed: func(conns []*flow.Flow) error {
			got = append(got, connLog(conns))
			return nil
		}}
		if _, err := eng.TestStream(ds, shape); err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("shape %d: %d hand-offs, the first equal to the batch log: %v", si, len(got), len(got) > 0 && got[0] == want)
		}
		shape.Hooks = &StreamHooks{ConnsClosed: func([]*flow.Flow) error { return boom }}
		if _, err := eng.TestStream(ds, shape); !errors.Is(err, boom) {
			t.Fatalf("shape %d: want the hook's error, got %v", si, err)
		}
	}
	// A pass that closes no connection hands on none, once, so a log
	// still gets its header.
	empty := *ds
	empty.Packets, empty.Labels, empty.Attacks = nil, nil, nil
	var calls, conns int
	cfg := StreamConfig{Hooks: &StreamHooks{AfterChunk: func(ChunkUpdate) error { return nil },
		ConnsClosed: func(cs []*flow.Flow) error {
			calls, conns = calls+1, conns+len(cs)
			return nil
		}}}
	if _, err := eng.TestStream(&empty, cfg); err != nil || calls != 1 || conns != 0 {
		t.Fatalf("an empty pass made %d hand-offs of %d connections (%v), want one of none", calls, conns, err)
	}

	// A packet plan and a uniflow plan assemble no connections: the pass
	// adds a log-only sink, whose hand-offs join into the batch log under
	// the default options at every shape and chunk size.
	uni := flowPipeline("decision_tree", map[string]any{"max_depth": 6})
	uni.Granularity, uni.Ops[0].Params["granularity"] = "uniflow", "uniflow"
	wantDefault := connLog(flow.Connections(pkts, flow.Options{}))
	for _, p := range []*Pipeline{uni, fieldPipeline()} {
		eng := NewEngine(p)
		eng.Seed = 7
		if err := eng.Train(ds); err != nil {
			t.Fatal(err)
		}
		if pl, err := eng.StreamPlan(ModeTest); err != nil || pl.ConnSink != -1 {
			t.Fatalf("%s: plan's connection sink = %d (%v), want none", p.Name, pl.ConnSink, err)
		}
		for si, shape := range hookShapes {
			for _, rows := range []int{1, 16} {
				var got bytes.Buffer
				lw := flow.NewConnLogWriter(&got)
				calls := 0
				shape.ChunkRows = rows
				shape.Hooks = &StreamHooks{ConnsClosed: func(conns []*flow.Flow) error {
					calls++
					return lw.Log(conns)
				}}
				if _, err := eng.TestStream(ds, shape); err != nil {
					t.Fatalf("%s, shape %d, chunk %d: %v", p.Name, si, rows, err)
				}
				if got.String() != wantDefault {
					t.Fatalf("%s, shape %d, chunk %d: the log of %d hand-offs differs from the batch log", p.Name, si, rows, calls)
				}
			}
			shape.Hooks = &StreamHooks{ConnsClosed: func([]*flow.Flow) error { return boom }}
			if _, err := eng.TestStream(ds, shape); !errors.Is(err, boom) {
				t.Fatalf("%s, shape %d: want the hook's error, got %v", p.Name, si, err)
			}
		}
		calls, conns = 0, 0
		if _, err := eng.TestStream(&empty, cfg); err != nil || calls != 1 || conns != 0 {
			t.Fatalf("%s: an empty pass made %d hand-offs of %d connections (%v), want one of none", p.Name, calls, conns, err)
		}
	}
}

// TestLogOnlySinkRecyclesFlows: a packet plan's log-only connection sink
// hands each chunk's closed connections on and then reuses their flows,
// so ConnsClosed's connections are valid only during the call. At depth
// 0 and 2, a conn-log rendered inside each call is the batch log under
// the default options byte for byte, while a pointer handed in one call
// comes back in a later one as another connection. The trace spans
// minutes, so connections close long before it ends.
func TestLogOnlySinkRecyclesFlows(t *testing.T) {
	spec, _ := dataset.Get("F5")
	ds := spec.Generate(2)
	var want bytes.Buffer
	if err := flow.WriteConnLog(&want, flow.Connections(decodedPackets(ds), flow.Options{})); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, 2} {
		var log bytes.Buffer
		lw := flow.NewConnLogWriter(&log)
		handed := map[*flow.Flow]netpkt.FiveTuple{}
		calls, reused, moved := 0, 0, 0
		cfg := StreamConfig{ChunkRows: 64, PipelineDepth: depth, Hooks: &StreamHooks{ConnsClosed: func(cs []*flow.Flow) error {
			calls++
			for _, c := range cs {
				if tuple, ok := handed[c]; ok {
					reused++
					if tuple != c.Tuple {
						moved++
					}
				}
				handed[c] = c.Tuple
			}
			return lw.Log(cs)
		}}}
		if _, err := eng.TestStream(ds, cfg); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if log.String() != want.String() {
			t.Fatalf("depth %d: the conn-log rendered inside each of %d calls differs from the batch log", depth, calls)
		}
		if calls < 2 || reused == 0 || moved == 0 {
			t.Fatalf("depth %d: %d calls, %d connections in reused flows, %d of them another tuple: the sink did not recycle", depth, calls, reused, moved)
		}
		t.Logf("depth %d: %d calls, %d flows, %d handed again, %d moved", depth, calls, len(handed), reused, moved)
	}
}

// TestAfterChunkHookError pins the abort path: a failing hook stops the
// stream like a failing op would, at every depth.
func TestAfterChunkHookError(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.05)
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	if err := eng.TrainStream(ds, StreamConfig{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink exploded")
	for si, shape := range hookShapes {
		calls := 0
		shape.Hooks = &StreamHooks{AfterChunk: func(ChunkUpdate) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		}}
		_, err := eng.TestStream(ds, shape)
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("shape %d: want hook error, got %v", si, err)
		}
		if !strings.Contains(err.Error(), "after-chunk hook") {
			t.Errorf("shape %d: error should name the hook: %v", si, err)
		}
	}
}

// TestAfterChunkHookModelSwap exercises the contract the daemon's hot
// swap relies on: a hook that retargets the model between chunks yields
// verdicts attributable to exactly one model per chunk.
func TestAfterChunkHookModelSwap(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.05)
	eng := NewEngine(fieldPipeline())
	eng.Seed = 7
	if err := eng.TrainStream(ds, StreamConfig{ChunkRows: 64}); err != nil {
		t.Fatal(err)
	}
	old, ok := eng.TrainedModel()
	if !ok {
		t.Fatal("no trained model")
	}
	// The replacement predicts the complement, making attribution visible.
	inv := invertClassifier{old}
	want, err := eng.TestStream(ds, StreamConfig{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	const swapAt = 3
	rows, boundary := 0, 0 // boundary: verdict rows scored before the swap took effect
	joined := testStreamHooked(t, eng, ds, StreamConfig{ChunkRows: 64, PipelineDepth: 4}, func(up ChunkUpdate) error {
		for _, res := range up.Results {
			rows += len(res.Pred)
		}
		if up.Seq < swapAt {
			boundary = rows
		}
		if up.Seq == swapAt-1 {
			return eng.ReplaceModel(inv)
		}
		return nil
	})
	if err := eng.ReplaceModel(old); err != nil { // restore
		t.Fatal(err)
	}
	got := joined.Pred
	if len(got) != len(want.Pred) {
		t.Fatalf("swap run produced %d preds, want %d", len(got), len(want.Pred))
	}
	if boundary == 0 || boundary >= len(got) {
		t.Fatalf("trace too small for swap test: boundary %d of %d rows", boundary, len(got))
	}
	// Every pred must match the old model before the boundary and the
	// inverted replacement after it — exactly one model per chunk.
	for i := range got {
		wantPred := want.Pred[i]
		if i >= boundary {
			wantPred = 1 - wantPred
		}
		if got[i] != wantPred {
			t.Fatalf("pred %d = %d: chunk not scored by exactly one model (want %d)", i, got[i], wantPred)
		}
	}
}

// invertClassifier flips the wrapped classifier's predictions; it gives
// swap tests a replacement model whose verdicts are unmistakable.
type invertClassifier struct{ inner mlkit.Classifier }

func (c invertClassifier) Fit(X [][]float64, y []int) error { return c.inner.Fit(X, y) }

func (c invertClassifier) Predict(X [][]float64) []int {
	out := c.inner.Predict(X)
	for i := range out {
		out[i] = 1 - out[i]
	}
	return out
}

// TestInstallModel pins the no-training install path: a classifier
// installed into a preprocessing-stateless pipeline serves Test directly.
func TestInstallModel(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.05)
	src := NewEngine(fieldPipeline())
	src.Seed = 7
	if err := src.Train(ds); err != nil {
		t.Fatal(err)
	}
	clf, _ := src.TrainedModel()
	want, err := src.Test(ds)
	if err != nil {
		t.Fatal(err)
	}

	dst := NewEngine(fieldPipeline())
	dst.Seed = 7
	if _, err := dst.Test(ds); err == nil {
		t.Fatal("Test before InstallModel should fail")
	}
	if err := dst.InstallModel(clf); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, want, got, "installed model")

	if err := NewEngine(fieldPipeline()).ReplaceModel(clf); err == nil {
		t.Fatal("ReplaceModel on an untrained engine should fail")
	}
}
