package obs

import (
	"bytes"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("lumen_cache_hits_total", "Shared cache hits.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := m.Counter("lumen_cache_hits_total", "Shared cache hits."); again != c {
		t.Fatal("re-resolving a counter returned a different instrument")
	}
	g := m.Gauge("lumen_workers", "Worker pool size.")
	g.Set(8)
	if g.Value() != 8 {
		t.Fatalf("gauge = %v, want 8", g.Value())
	}
}

func TestLabeledSeriesAreDistinctAndOrderInsensitive(t *testing.T) {
	m := NewMetrics()
	a := m.Counter("ops_total", "", "op", "select", "mode", "train")
	b := m.Counter("ops_total", "", "mode", "train", "op", "select") // same labels, different order
	c := m.Counter("ops_total", "", "op", "filter", "mode", "train")
	if a != b {
		t.Fatal("label order split a series")
	}
	if a == c {
		t.Fatal("different label values shared a series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("wall_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	bounds, cum, sum, total := h.snapshot()
	if len(bounds) != 3 || total != 4 {
		t.Fatalf("bounds=%v total=%d", bounds, total)
	}
	if cum[0] != 1 || cum[1] != 2 || cum[2] != 3 || cum[3] != 4 {
		t.Fatalf("cumulative counts = %v", cum)
	}
	if math.Abs(sum-5.555) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
	// Boundary value lands in its own bucket (le is inclusive).
	h2 := m.Histogram("wall2_seconds", "", []float64{1, 2})
	h2.Observe(1)
	_, cum2, _, _ := h2.snapshot()
	if cum2[0] != 1 {
		t.Fatalf("le=1 bucket missed an observation at exactly 1: %v", cum2)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	m := NewMetrics()
	m.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	m.Gauge("x_total", "")
}

// parseExposition minimally parses Prometheus text format into sample
// name → value, failing the test on malformed lines — the round-trip
// check that the exposition is machine-readable.
func parseExposition(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			if len(strings.Fields(line)) < 3 {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil && val != "+Inf" {
			t.Fatalf("sample %q has unparseable value %q", name, val)
		}
		out[name] = f
	}
	return out
}

func TestPrometheusExpositionRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Counter("lumen_runs_total", "Completed runs.").Add(12)
	m.Gauge("lumen_worker_utilization", "Busy / (wall x workers).").Set(0.75)
	m.Counter("lumen_ops_total", "Ops executed.", "op", "select").Add(3)
	m.Counter("lumen_ops_total", "Ops executed.", "op", `we"ird\op`).Inc()
	h := m.Histogram("lumen_op_wall_seconds", "Per-op wall time.", []float64{0.5, 1}, "op", "select")
	h.Observe(0.2)
	h.Observe(2)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := parseExposition(t, strings.NewReader(text))

	checks := map[string]float64{
		`lumen_runs_total`:                                    12,
		`lumen_worker_utilization`:                            0.75,
		`lumen_ops_total{op="select"}`:                        3,
		`lumen_op_wall_seconds_bucket{op="select",le="0.5"}`:  1,
		`lumen_op_wall_seconds_bucket{op="select",le="1"}`:    1,
		`lumen_op_wall_seconds_bucket{op="select",le="+Inf"}`: 2,
		`lumen_op_wall_seconds_sum{op="select"}`:              2.2,
		`lumen_op_wall_seconds_count{op="select"}`:            2,
	}
	for name, want := range checks {
		got, ok := samples[name]
		if !ok {
			t.Errorf("sample %s missing from exposition:\n%s", name, text)
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("sample %s = %v, want %v", name, got, want)
		}
	}
	if !strings.Contains(text, `op="we\"ird\\op"`) {
		t.Errorf("label escaping missing:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE lumen_op_wall_seconds histogram") {
		t.Error("histogram TYPE line missing")
	}
	// Families must be sorted for deterministic output.
	first := strings.Index(text, "lumen_op_wall_seconds")
	last := strings.Index(text, "lumen_worker_utilization")
	if first < 0 || last < 0 || first > last {
		t.Error("families are not sorted by name")
	}
}

func TestMetricsHandler(t *testing.T) {
	m := NewMetrics()
	m.Counter("hits_total", "").Inc()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	samples := parseExposition(t, resp.Body)
	if samples["hits_total"] != 1 {
		t.Fatalf("handler served %v", samples)
	}
}

func TestNilMetricsIsNilSafe(t *testing.T) {
	var m *Metrics
	m.Counter("c_total", "").Inc()
	m.Gauge("g", "").Set(1)
	m.Histogram("h", "", nil).Observe(1)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil metrics exposition: err=%v len=%d", err, buf.Len())
	}
}

func TestConcurrentMetrics(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Counter("c_total", "", "w", strconv.Itoa(w%2)).Inc()
				m.Histogram("h_seconds", "", nil).Observe(float64(i) / 1000)
			}
		}(w)
	}
	wg.Wait()
	a := m.Counter("c_total", "", "w", "0").Value()
	b := m.Counter("c_total", "", "w", "1").Value()
	if a+b != 1600 {
		t.Fatalf("counters lost updates: %d + %d != 1600", a, b)
	}
	if _, _, _, n := m.Histogram("h_seconds", "", nil).snapshot(); n != 1600 {
		t.Fatal("histogram lost observations")
	}
}
