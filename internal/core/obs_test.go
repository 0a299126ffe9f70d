package core

import (
	"strings"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// obsPipeline is a small flow pipeline with an iterative model so train
// ops produce epoch events.
func obsPipeline() *Pipeline {
	return &Pipeline{
		Name:        "obs-svm",
		Granularity: "connection",
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "flows", Params: map[string]any{"granularity": "connection"}},
			{Func: "flow_features", Input: []string{"flows"}, Output: "X"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "linear_svm", "epochs": 4}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

func TestEngineEmitsSpansAndMetrics(t *testing.T) {
	p := obsPipeline()
	tr := obs.NewTracer()
	met := obs.NewMetrics()
	root := tr.Start("run", 0)

	eng := NewEngine(p)
	eng.Seed = 1
	eng.Span = root
	eng.Metrics = met
	ds := smallDS(t, "F1")
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Test(ds); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := tr.Spans()
	run := spans[findSpan(t, spans, "run")].ID
	// A streamed op's span hangs off its chunk's, a flush op's off the run.
	underRun := map[int64]bool{run: true}
	for _, s := range spans {
		if s.Name == "chunk" && s.Parent == run {
			underRun[s.ID] = true
		}
	}
	var ops, epochs int
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "op:"):
			ops++
			if !underRun[s.Parent] {
				t.Errorf("op span %q not parented to run or to one of its chunks", s.Name)
			}
			if _, ok := s.Attrs["output"]; !ok {
				t.Errorf("op span %q missing output attr", s.Name)
			}
			if _, ok := s.Attrs["rows_out"]; !ok {
				t.Errorf("op span %q missing rows_out attr", s.Name)
			}
		case strings.HasPrefix(s.Name, "epoch:"):
			epochs++
		}
	}
	// 4 ops per phase, two phases (train + test).
	if ops != 8 {
		t.Errorf("got %d op spans, want 8", ops)
	}
	if epochs != 4 {
		t.Errorf("got %d epoch spans, want 4 (epochs configured)", epochs)
	}

	if got := met.Counter("lumen_ops_total", "", "op", "train").Value(); got != 2 {
		t.Errorf("lumen_ops_total{op=train} = %d, want 2", got)
	}
	if got := met.Counter("lumen_fit_epochs_total", "", "model", "linear_svm").Value(); got != 4 {
		t.Errorf("lumen_fit_epochs_total{model=linear_svm} = %d, want 4", got)
	}
	var exp strings.Builder
	if err := met.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if want := `lumen_op_wall_seconds_count{op="flow_features"} 2` + "\n"; !strings.Contains(exp.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

func findSpan(t *testing.T, spans []obs.SpanRecord, name string) int {
	t.Helper()
	for i, s := range spans {
		if s.Name == name {
			return i
		}
	}
	t.Fatalf("span %q not found", name)
	return -1
}

func TestCacheMetricsMirrorStats(t *testing.T) {
	met := obs.NewMetrics()
	c := NewCache()
	c.SetMetrics(met)

	compute := func(v Value) func() (Value, error) {
		return func() (Value, error) { return v, nil }
	}
	f1, f2 := NewFrame(4), NewFrame(0)
	f1.AddF("x", []float64{1, 2, 3, 4})
	if _, err, _ := c.getOrCompute("k1", nil, compute(f1)); err != nil {
		t.Fatal(err)
	}
	if _, err, _ := c.getOrCompute("k1", nil, compute(f1)); err != nil { // hit
		t.Fatal(err)
	}
	if _, err, _ := c.getOrCompute("k2", nil, compute(f2)); err != nil { // miss
		t.Fatal(err)
	}

	st := c.Stats()
	checks := []struct {
		name string
		got  uint64
		want int
	}{
		{"lumen_cache_hits_total", met.Counter("lumen_cache_hits_total", "").Value(), st.Hits},
		{"lumen_cache_misses_total", met.Counter("lumen_cache_misses_total", "").Value(), st.Misses},
	}
	for _, ck := range checks {
		if int(ck.got) != ck.want {
			t.Errorf("%s = %d, want %d (Stats)", ck.name, ck.got, ck.want)
		}
	}
	if g := met.Gauge("lumen_cache_entries", "").Value(); g != float64(st.Entries) {
		t.Errorf("lumen_cache_entries = %v, want %d", g, st.Entries)
	}
	if st.Bytes != 4*8 {
		t.Errorf("bytes = %d, want %d (one 4-row numeric column)", st.Bytes, 4*8)
	}
	if g := met.Gauge("lumen_cache_bytes", "").Value(); g != float64(st.Bytes) {
		t.Errorf("lumen_cache_bytes = %v, want %d", g, st.Bytes)
	}
}

// TestDisabledObsAddsNoOpAllocations pins the acceptance guarantee that
// an engine with no Span/Metrics attached allocates nothing extra on the
// op dispatch path: finishOp and the span setup must be branch-only.
func TestDisabledObsAddsNoOpAllocations(t *testing.T) {
	eng := NewEngine(obsPipeline())
	st := OpStats{Func: "select", Output: "x"}
	if n := testing.AllocsPerRun(1000, func() {
		var sp *obs.Span
		if eng.Span != nil {
			sp = eng.Span.Child("op:" + "select")
		}
		eng.finishOp(sp, &st, nil)
	}); n != 0 {
		t.Fatalf("disabled obs allocates %v per op, want 0", n)
	}
}

// BenchmarkOpDispatch measures a full engine run (train + test) on a
// small dataset with observability disabled — the seed-parity hot path.
func BenchmarkOpDispatch(b *testing.B) {
	spec, ok := dataset.Get("F1")
	if !ok {
		b.Skip("dataset F1 unavailable")
	}
	ds := spec.Generate(0.15)
	p := obsPipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(p)
		eng.Seed = 1
		if err := eng.Train(ds); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Test(ds); err != nil {
			b.Fatal(err)
		}
	}
}
