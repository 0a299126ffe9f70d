package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/mlkit"
)

// hookShapes are the execution shapes the hook contract covers.
var hookShapes = []StreamConfig{
	{ChunkRows: 64},
	{ChunkRows: 64, PipelineDepth: 2},
	{ChunkRows: 64, PipelineDepth: 4, Workers: 4},
}

// TestAfterChunkHook verifies the per-chunk lifecycle hook across
// execution shapes: one call per chunk in stream order, per-chunk verdict
// rows that concatenate to exactly the unhooked result, and unchanged
// final output.
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
		var preds []int
		rows := 0
		shape.Hooks = &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
			seqs = append(seqs, up.Seq)
			for _, res := range up.Results {
				preds = append(preds, res.Pred...)
				rows += len(res.Truth)
			}
			return nil
		}}
		got, err := eng.TestStream(ds, shape)
		if err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
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
		if len(preds) != len(want.Pred) || rows != len(want.Truth) {
			t.Errorf("shape %d: per-chunk verdicts cover %d preds / %d rows, want %d", si, len(preds), rows, len(want.Pred))
		}
		for i := range preds {
			if preds[i] != want.Pred[i] {
				t.Fatalf("shape %d: per-chunk pred %d = %d, batch %d", si, i, preds[i], want.Pred[i])
			}
		}
	}
}

// TestAfterChunkHookError pins the abort path: a failing hook stops the
// stream like a failing op would, in every execution shape.
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
	var got []int
	boundary := 0 // verdict rows scored before the swap took effect
	hooks := &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
		for _, res := range up.Results {
			got = append(got, res.Pred...)
		}
		if up.Seq < swapAt {
			boundary = len(got)
		}
		if up.Seq == swapAt-1 {
			return eng.ReplaceModel(inv)
		}
		return nil
	}}
	if _, err := eng.TestStream(ds, StreamConfig{ChunkRows: 64, PipelineDepth: 4, Workers: 4, Hooks: hooks}); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReplaceModel(old); err != nil { // restore
		t.Fatal(err)
	}
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
