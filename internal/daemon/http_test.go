package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
)

// httpGet fetches a URL and returns status + body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// httpPost posts to a URL and returns status + body.
func httpPost(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDaemonHTTP drives concurrent pipelines end-to-end over the
// operational HTTP surface: status listing, a hot swap from a persisted
// model file, drain, /metrics, /trace, and the error paths.
func TestDaemonHTTP(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 20)

	// A promotable candidate, persisted the way an offline trainer would.
	clf, ok := trainedEngine(t, ds).TrainedModel()
	if !ok {
		t.Fatal("no trained model")
	}
	modelPath := filepath.Join(t.TempDir(), "candidate.json")
	if err := mlkit.SaveModel(modelPath, clf); err != nil {
		t.Fatal(err)
	}

	d := New(Config{Metrics: obs.NewMetrics(), Tracer: obs.NewTracer()})
	gate := newGate(dataset.NewSliceSource(ds))
	var alertsA, alertsB bytes.Buffer
	if _, err := d.Start(PipeConfig{
		Name:   "gated",
		Engine: trainedEngine(t, ds),
		Source: gate,
		Stream: core.StreamConfig{ChunkRows: rows},
		Alerts: &alertsA,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start(PipeConfig{
		Name:   "free",
		Engine: trainedEngine(t, ds),
		Source: NewReplaySource(dataset.NewSliceSource(ds), 0, 0),
		Stream: core.StreamConfig{ChunkRows: rows},
		Alerts: &alertsB,
	}); err != nil {
		t.Fatal(err)
	}
	// A flow pipeline scores its connections as they close: its status
	// names no drain barrier.
	flows := core.NewEngine(&core.Pipeline{
		Name:        "daemon-conn-dt",
		Granularity: "connection",
		Ops: []core.OpSpec{
			{Func: "flow_assemble", Input: []string{core.InputName}, Output: "conns"},
			{Func: "flow_features", Input: []string{"conns"}, Output: "F"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 4}},
			{Func: "train", Input: []string{"m", "F"}, Output: "fit"},
		},
	})
	if err := flows.TrainStream(ds, core.StreamConfig{ChunkRows: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start(PipeConfig{
		Name:   "flows",
		Engine: flows,
		Source: NewReplaySource(dataset.NewSliceSource(ds), 0, 0),
		Stream: core.StreamConfig{ChunkRows: rows},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	if code, body := httpGet(t, srv.URL+"/healthz"); code != 200 || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	var listed []PipeStatus
	code, body := httpGet(t, srv.URL+"/pipelines")
	if code != 200 {
		t.Fatalf("/pipelines = %d %s", code, body)
	}
	if err := json.Unmarshal(body, &listed); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		name    string
		barrier *core.PlanBarrier
	}{
		{"flows", nil},
		{"free", nil},
		{"gated", nil},
	} {
		if len(listed) != 3 || listed[i].Name != want.name {
			t.Fatalf("/pipelines listed %+v", listed)
		}
		if got := listed[i].Barrier; (got == nil) != (want.barrier == nil) || got != nil && *got != *want.barrier {
			t.Errorf("/pipelines %s: barrier = %+v, want %+v", want.name, got, want.barrier)
		}
	}

	// Swap over HTTP: queue the request (it blocks until a chunk
	// boundary), then feed chunks so it applies and auto-promotes.
	p, _ := d.Pipe("gated")
	gate.allow(2)
	waitFor(t, 5*time.Second, "2 chunks", func() bool { return p.Status().Chunks >= 2 })
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		u := fmt.Sprintf("%s/pipelines/gated/swap?model=%s&shadow=1&max-disagree=0&auto=true", srv.URL, modelPath)
		if code, body := httpPost(t, u); code != 200 || !bytes.Contains(body, []byte(`"ok": true`)) {
			t.Errorf("swap = %d %s", code, body)
		}
	}()
	waitFor(t, 5*time.Second, "swap queued", func() bool { return len(p.ctrl) > 0 })
	gate.allow(1)
	select {
	case <-swapped:
	case <-time.After(10 * time.Second):
		t.Fatal("HTTP swap never returned")
	}
	gate.allow(1) // one shadow chunk; identical model promotes
	waitFor(t, 5*time.Second, "promotion", func() bool { return p.Status().ModelGeneration == 2 })

	// Status of one pipeline.
	code, body = httpGet(t, srv.URL+"/pipelines/gated")
	var st PipeStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/pipelines/gated = %d %s: %v", code, body, err)
	}
	if st.ModelGeneration != 2 || st.LastSwap == nil || st.LastSwap.Outcome != "promoted" {
		t.Fatalf("status after HTTP swap = %+v", st)
	}

	// Drain both over HTTP; "gated" still has permits outstanding only
	// for consumed chunks, so drain truncates it gracefully.
	if code, body := httpPost(t, srv.URL+"/pipelines/gated/drain"); code != 200 {
		t.Fatalf("drain gated = %d %s", code, body)
	}
	if code, body := httpPost(t, srv.URL+"/pipelines/free/drain"); code != 200 {
		t.Fatalf("drain free = %d %s", code, body)
	}
	for _, name := range []string{"gated", "free"} {
		_, body := httpGet(t, srv.URL+"/pipelines/"+name)
		var st PipeStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != "stopped" || st.Error != "" || st.Verdicts == 0 {
			t.Fatalf("pipeline %s after drain: %+v", name, st)
		}
	}

	// Observability endpoints.
	code, body = httpGet(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"lumen_daemon_pipelines 3",
		`lumen_daemon_model_generation{pipeline="gated"} 2`,
		`lumen_daemon_swaps_total{outcome="promoted",pipeline="gated"} 1`,
		`lumen_daemon_chunks_total{pipeline="free"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, body := httpGet(t, srv.URL+"/trace"); code != 200 || !bytes.Contains(body, []byte("pipeline:gated")) {
		t.Fatalf("/trace = %d (want pipeline spans): %.120s", code, body)
	}
	if code, _ := httpGet(t, srv.URL+"/trace?format=chrome"); code != 200 {
		t.Fatalf("/trace?format=chrome = %d", code)
	}

	// Error paths.
	if code, _ := httpGet(t, srv.URL+"/pipelines/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown pipeline = %d, want 404", code)
	}
	if code, _ := httpPost(t, srv.URL+"/pipelines/gated/frobnicate"); code != http.StatusNotFound {
		t.Fatalf("unknown verb = %d, want 404", code)
	}
	if code, _ := httpGet(t, srv.URL+"/pipelines/gated/drain"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a control verb = %d, want 405", code)
	}
	if code, body := httpPost(t, srv.URL+"/pipelines/gated/promote"); code != http.StatusConflict ||
		!bytes.Contains(body, []byte("not running")) {
		t.Fatalf("promote on stopped pipeline = %d %s, want 409", code, body)
	}
	if code, _ := httpPost(t, srv.URL+"/pipelines/free/swap?model=/does/not/exist.json"); code != http.StatusConflict {
		t.Fatalf("swap with a bad model path = %d, want 409", code)
	}

	// Both alert streams carried verdicts from their own pipeline only.
	for name, buf := range map[string]*bytes.Buffer{"gated": &alertsA, "free": &alertsB} {
		alerts := parseAlerts(t, buf.Bytes())
		if len(alerts) == 0 {
			t.Fatalf("pipeline %s wrote no alerts", name)
		}
		for _, a := range alerts {
			if a.Pipeline != name {
				t.Fatalf("pipeline %s emitted alert for %q", name, a.Pipeline)
			}
		}
	}
}

// TestSwapMalformedModelRefused: a model file is outside input. Envelopes
// whose trees would make the scoring goroutine panic (child index out of
// range, leaf without a distribution) or spin forever (a cycle) must be
// refused at load, and the pipeline must keep serving on the generation
// it had.
func TestSwapMalformedModelRefused(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 20)
	d := New(Config{Metrics: obs.NewMetrics()})
	gate := newGate(dataset.NewSliceSource(ds))
	var alerts bytes.Buffer
	p, err := d.Start(PipeConfig{
		Name:   "gated",
		Engine: trainedEngine(t, ds),
		Source: gate,
		Stream: core.StreamConfig{ChunkRows: rows},
		Alerts: &alerts,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	gate.allow(2)
	waitFor(t, 5*time.Second, "2 chunks", func() bool { return p.Status().Chunks >= 2 })

	const leaf = `{"f":-1,"t":0,"l":0,"r":0,"p":[1,0]}`
	for name, nodes := range map[string]string{
		"cycle":              `{"f":0,"t":0.5,"l":0,"r":1},` + leaf,
		"child out of range": `{"f":0,"t":0.5,"l":1,"r":9},` + leaf,
		"leaf without p":     `{"f":0,"t":0.5,"l":1,"r":2},` + leaf + `,{"f":-1,"t":0,"l":0,"r":0}`,
	} {
		path := filepath.Join(t.TempDir(), "bad.json")
		model := fmt.Sprintf(`{"version":1,"type":"random_forest","data":{"classes":2,"trees":[{"classes":2,"nodes":[%s]}]}}`, nodes)
		if err := os.WriteFile(path, []byte(model), 0o644); err != nil {
			t.Fatal(err)
		}
		code, body := httpPost(t, srv.URL+"/pipelines/gated/swap?model="+path+"&shadow=1&auto=true")
		if code != http.StatusConflict || !bytes.Contains(body, []byte("UnmarshalModel")) {
			t.Fatalf("%s: swap = %d %s, want 409 naming the load failure", name, code, body)
		}
		if st := p.Status(); st.State != "running" || st.ModelGeneration != 1 || st.Shadowing {
			t.Fatalf("%s: status after refused swap = %+v, want running on generation 1, no shadow", name, st)
		}
	}

	// Still scoring.
	gate.allow(2)
	waitFor(t, 5*time.Second, "2 more chunks", func() bool { return p.Status().Chunks >= 4 })
	if err := p.Drain(); err != nil {
		t.Fatalf("drain after refused swaps: %v", err)
	}
	if st := p.Status(); st.ModelGeneration != 1 || st.Verdicts == 0 {
		t.Fatalf("final status = %+v, want verdicts from generation 1", st)
	}
}
