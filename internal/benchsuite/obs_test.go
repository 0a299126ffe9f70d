package benchsuite

import (
	"strings"
	"testing"

	"lumen/internal/obs"
)

// TestSuiteSpanTreeUnderWorkers runs a multi-worker suite with tracing
// and metrics on and checks the span tree: suite → batch → run → op,
// with run spans on per-worker tracks and time ranges contained in
// their parents. Run under -race this also pins the concurrency
// contract of Span.Child/ChildOn from pool workers.
func TestSuiteSpanTreeUnderWorkers(t *testing.T) {
	tr := obs.NewTracer()
	met := obs.NewMetrics()
	s, err := New(Config{
		Scale:      0.3,
		Seed:       1,
		AlgIDs:     []string{"A13", "A14"},
		DatasetIDs: []string{"F1", "F4"},
		Workers:    4,
		Tracer:     tr,
		Metrics:    met,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunSameDataset()
	s.Finish()

	spans := tr.Spans()
	byID := map[int64]obs.SpanRecord{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var suite, batch *obs.SpanRecord
	var runs, ops int
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Name == "suite":
			suite = sp
		case strings.HasPrefix(sp.Name, "batch:"):
			batch = sp
		case strings.HasPrefix(sp.Name, "run:"):
			runs++
			if sp.TID < 1 {
				t.Errorf("run span %q on track %d, want a worker track >= 1", sp.Name, sp.TID)
			}
			if sp.Attrs["alg"] == nil || sp.Attrs["train"] == nil || sp.Attrs["worker"] == nil {
				t.Errorf("run span %q missing attrs: %v", sp.Name, sp.Attrs)
			}
		case strings.HasPrefix(sp.Name, "op:"):
			ops++
		}
	}
	if suite == nil || batch == nil {
		t.Fatalf("missing suite/batch spans (suite=%v batch=%v)", suite, batch)
	}
	if batch.Parent != suite.ID {
		t.Errorf("batch parent = %d, want suite %d", batch.Parent, suite.ID)
	}
	// A13/A14 are connection-granularity and run on both datasets.
	if runs != 4 {
		t.Errorf("got %d run spans, want 4", runs)
	}
	if ops == 0 {
		t.Error("no op spans recorded beneath runs")
	}
	// Structural check: every non-root span's parent exists, and the
	// parent's [start, end] contains the child's — except retroactive
	// epoch spans, whose timing is reported by the model, and train/test
	// phase spans racing the clock at microsecond scale.
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %q has unknown parent %d", sp.Name, sp.Parent)
			continue
		}
		if strings.HasPrefix(sp.Name, "epoch:") {
			continue
		}
		const slack = int64(1e6) // 1ms: span ends are recorded, not atomic
		if sp.StartNS+slack < p.StartNS || sp.StartNS+sp.DurNS > p.StartNS+p.DurNS+slack {
			t.Errorf("span %q [%d,%d] not inside parent %q [%d,%d]",
				sp.Name, sp.StartNS, sp.StartNS+sp.DurNS, p.Name, p.StartNS, p.StartNS+p.DurNS)
		}
	}

	// Suite metrics must reflect the batch.
	if got := met.Counter("lumen_runs_total", "").Value(); got != 4 {
		t.Errorf("lumen_runs_total = %d, want 4", got)
	}
	if got := met.Counter("lumen_run_errors_total", "").Value(); got != 0 {
		t.Errorf("lumen_run_errors_total = %d, want 0", got)
	}
	if w := met.Gauge("lumen_suite_workers", "").Value(); w != 4 {
		t.Errorf("lumen_suite_workers = %v, want 4", w)
	}
	u := met.Gauge("lumen_worker_utilization", "").Value()
	if u <= 0 || u > 1 {
		t.Errorf("lumen_worker_utilization = %v, want (0, 1]", u)
	}
	// Cache metrics flow through from core.
	st := s.CacheStats()
	if got := met.Counter("lumen_cache_misses_total", "").Value(); int(got) != st.Misses {
		t.Errorf("lumen_cache_misses_total = %d, want %d", got, st.Misses)
	}

	// The exported Chrome trace must be consumable.
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"run:A13 F1→F1"`) {
		t.Error("chrome trace missing run span name")
	}
}

func TestStoreManifest(t *testing.T) {
	s, err := New(Config{Scale: 0.3, Seed: 7, AlgIDs: []string{"A14"}, DatasetIDs: []string{"F1"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Store.Meta.Manifest
	if m == nil {
		t.Fatal("Store.Meta.Manifest not set by New")
	}
	if m.Seed != 7 || m.Scale != 0.3 || m.Workers != 2 || !m.Cache {
		t.Errorf("manifest config wrong: %+v", m)
	}
	if len(m.Algorithms) != 1 || m.Algorithms[0] != "A14" {
		t.Errorf("manifest algorithms = %v", m.Algorithms)
	}
	if len(m.Datasets) != 1 || m.Datasets[0] != "F1" {
		t.Errorf("manifest datasets = %v", m.Datasets)
	}
	if m.GoVersion == "" || m.MaxProcs < 1 {
		t.Errorf("manifest runtime info missing: %+v", m)
	}

	// Round-trip through Save/Load.
	path := t.TempDir() + "/store.json"
	if err := s.Store.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	lm := loaded.Meta.Manifest
	if lm == nil || lm.Seed != 7 || lm.GoVersion != m.GoVersion {
		t.Errorf("manifest did not round-trip: %+v", lm)
	}
}

// TestSuiteWithoutObsIsUnchanged guards the disabled path: no tracer, no
// metrics, no root span — and results still come out.
func TestSuiteWithoutObsIsUnchanged(t *testing.T) {
	s, err := New(Config{Scale: 0.3, Seed: 1, AlgIDs: []string{"A14"}, DatasetIDs: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	if s.root != nil {
		t.Fatal("root span created without a tracer")
	}
	s.RunSameDataset()
	s.Finish() // must be safe with no tracer
	if len(s.Store.Results) != 1 || !s.Store.Results[0].OK() {
		t.Fatalf("results wrong without obs: %+v", s.Store.Results)
	}
}
