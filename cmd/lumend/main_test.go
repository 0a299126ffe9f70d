package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
	"lumen/internal/report"
)

// obj is a JSON object under construction.
type obj = map[string]any

// writeConfig writes a lumend config declaring the given pipeline
// entries and returns its path.
func writeConfig(t *testing.T, pipelines ...obj) string {
	t.Helper()
	data, err := json.Marshal(obj{"pipelines": pipelines})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lumend.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayF1 and trainF1 are the fixture trace as config objects.
var (
	replayF1 = obj{"replay": obj{"dataset": "F1", "scale": 0.05}}
	trainF1  = obj{"dataset": "F1", "scale": 0.05}
)

// testPipelineJSON writes the fixture pipeline template to a temp file:
// packet granularity, every op streaming, a decision tree so the fitted
// model round-trips through mlkit.SaveModel.
func testPipelineJSON(t *testing.T) string {
	t.Helper()
	tpl := map[string]any{
		"name":        "lumend-test",
		"granularity": "packet",
		"ops": []map[string]any{
			{"func": "field_extract", "input": []string{core.InputName}, "output": "X",
				"params": map[string]any{"fields": []string{"ts", "len", "ttl", "dst_port", "tcp_syn", "iat"}}},
			{"func": "log_scale", "input": []string{"X"}, "output": "Xl"},
			{"func": "model", "output": "m", "params": map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{"func": "train", "input": []string{"m", "Xl"}, "output": "fit"},
		},
	}
	data, err := json.Marshal(tpl)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pipeline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testDS generates the shared fixture trace.
func testDS(t *testing.T) *dataset.Labeled {
	t.Helper()
	spec, ok := dataset.Get("F1")
	if !ok {
		t.Fatal("dataset F1 not registered")
	}
	return spec.Generate(0.05)
}

// trainModelFile fits the fixture pipeline on ds and persists the model.
func trainModelFile(t *testing.T, plPath string, ds *dataset.Labeled) string {
	t.Helper()
	pl, err := core.LoadPipeline(plPath)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(pl)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	clf, ok := eng.TrainedModel()
	if !ok {
		t.Fatal("no trained model")
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := mlkit.SaveModel(path, clf); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestValidation: every malformed or inconsistent file is refused by
// -check, i.e. before anything is trained, opened or started.
func TestValidation(t *testing.T) {
	tpl := testPipelineJSON(t)
	entry := func(over obj) obj {
		e := obj{"template": tpl, "train": trainF1, "source": replayF1}
		for k, v := range over {
			if v == nil {
				delete(e, k)
			} else {
				e[k] = v
			}
		}
		return e
	}
	cases := []struct {
		name      string
		pipelines []obj
		want      string
	}{
		{"no pipeline", nil, "no pipelines"},
		{"unknown key", []obj{entry(obj{"chunk_rows": 64})}, `unknown field "chunk_rows"`},
		{"unknown nested key", []obj{entry(obj{"stream": obj{"shards": 2}})}, `unknown field "shards"`},
		{"no template", []obj{entry(obj{"template": nil})}, "template is required"},
		{"missing template", []obj{entry(obj{"template": "nowhere.json"})}, "nowhere.json"},
		{"no ingest", []obj{entry(obj{"source": nil})}, "exactly one source"},
		{"two ingests", []obj{entry(obj{"source": obj{"replay": replayF1["replay"], "watch": obj{"dir": "spool"}}})}, "exactly one source"},
		{"pcap and dataset", []obj{entry(obj{"source": obj{"replay": obj{"pcap": "a.pcap", "dataset": "F1"}}})}, "exactly one of pcap and dataset"},
		{"speed and delay", []obj{entry(obj{"source": obj{"replay": obj{"dataset": "F1", "speed": 1, "delay_ms": 5}}})}, "mutually exclusive"},
		{"no model", []obj{entry(obj{"train": nil})}, "exactly one model source"},
		{"model and train", []obj{entry(obj{"model": "m.json"})}, "exactly one model source"},
		{"bad link", []obj{entry(obj{"source": obj{"link": "token-ring", "feed": ":0"}})}, "unknown link"},
		{"duplicate name", []obj{entry(nil), entry(nil)}, "already taken"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(options{config: writeConfig(t, tc.pipelines...), check: true}, &out, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run -check = %v, want error containing %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("a refused file still printed plans:\n%s", out.String())
			}
		})
	}
}

// TestCommandLine pins the flag surface: five process-level flags, and
// every per-pipeline flag of the old CLI fails as unknown.
func TestCommandLine(t *testing.T) {
	parse := func(args ...string) error {
		var o options
		fs := flags(&o)
		fs.Init("lumend", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs.Parse(args)
	}
	n := 0
	flags(new(options)).VisitAll(func(*flag.Flag) { n++ })
	if n > 5 {
		t.Fatalf("lumend declares %d flags, want at most 5", n)
	}
	if err := parse("-config", "f.json", "-check", "-listen", "", "-trace-out", "t", "-metrics-out", "m"); err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{"pipeline", "pipes", "seed", "replay", "replay-dataset", "replay-scale", "speed",
		"replay-delay", "listen-feed", "watch", "watch-glob", "watch-poll", "link", "model", "train", "train-scale",
		"chunk-rows", "chunk-bytes", "depth", "workers", "alerts", "anomalies-only", "connlog", "swap-model",
		"swap-after-chunks", "shadow-chunks", "max-disagree", "swap-auto", "retrain", "retrain-reservoir",
		"retrain-min-rows", "retrain-cooldown", "retrain-fresh"} {
		if err := parse("-" + old + "=1"); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("-%s: %v, want an unknown-flag error", old, err)
		}
	}
}

// TestREADMEFlagTable pins README.md's "lumend flags" table to the flag
// set: paste what the failure prints between the markers.
func TestREADMEFlagTable(t *testing.T) {
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := report.FlagTable("lumend", flags(new(options)))
	if !bytes.Contains(doc, []byte(want)) {
		t.Errorf("README.md's lumend flag table is stale; it should read:\n%s", want)
	}
}

// TestCheckPrintsPlans: -check names each pipeline's plan and where a
// flow pipeline's verdicts come from, and starts nothing.
func TestCheckPrintsPlans(t *testing.T) {
	var out bytes.Buffer
	if err := run(options{config: "../../examples/multi-tenant/lumend.json", check: true}, &out, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pipeline "packets" ok: packet units, decode headers; every op streams`,
		`pipeline "A14-zeek" ok: connection units`,
		"verdicts come as flows close, from op 1 flow_features on",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-check output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "running") {
		t.Errorf("-check started a pipeline:\n%s", out.String())
	}
}

// TestRunReplayDataset drives the full binary path on a finite replay:
// train on a registry dataset, replay it, write every sink and exit dump,
// and exit cleanly without a signal.
func TestRunReplayDataset(t *testing.T) {
	dir := t.TempDir()
	alerts := filepath.Join(dir, "alerts.jsonl")
	connlog := filepath.Join(dir, "conn.log")
	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.json")
	o := options{
		config: writeConfig(t, obj{
			"template": testPipelineJSON(t), "train": trainF1, "source": replayF1,
			"stream": obj{"chunk_rows": 32}, "alerts": alerts, "connlog": connlog,
		}),
		metricsOut: metrics, traceOut: trace,
	}
	var out bytes.Buffer
	if err := run(o, &out, make(chan os.Signal)); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `pipeline "lumend-test" stopped`) {
		t.Fatalf("no clean shutdown line in output:\n%s", out.String())
	}

	data, err := os.ReadFile(alerts)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	want := len(testDS(t).Packets)
	if len(lines) != want {
		t.Fatalf("alert lines = %d, want %d (one per replayed packet)", len(lines), want)
	}
	var a struct {
		Pipeline string `json:"pipeline"`
		ModelGen int    `json:"model_gen"`
	}
	if err := json.Unmarshal(lines[0], &a); err != nil {
		t.Fatalf("first alert line is not JSON: %v", err)
	}
	if a.Pipeline != "lumend-test" || a.ModelGen != 1 {
		t.Fatalf("first alert = %+v", a)
	}

	for name, path := range map[string]string{"connlog": connlog, "metrics": metrics, "trace": trace} {
		st, err := os.Stat(path)
		if err != nil || st.Size() == 0 {
			t.Fatalf("%s sink empty or missing (err %v)", name, err)
		}
	}
	prom, _ := os.ReadFile(metrics)
	if !bytes.Contains(prom, []byte("lumen_daemon_verdicts_total")) {
		t.Fatalf("metrics dump missing daemon counters:\n%.300s", prom)
	}
}

// TestRunHeterogeneousPipelines boots what the flags never could: two
// different templates (packet tree, connection forest), each on its own
// source (a synthetic dataset, a capture file), each with its own sinks.
func TestRunHeterogeneousPipelines(t *testing.T) {
	dir := t.TempDir()
	ds := testDS(t)
	writePcapInto(t, dir, "capture.pcap", ds.Link, ds.Packets)
	pktAlerts, flowAlerts := filepath.Join(dir, "packets.jsonl"), filepath.Join(dir, "flows.jsonl")
	flowConn := filepath.Join(dir, "flows-conn.log")
	// A relative template would resolve against the config file's
	// directory (a temp dir here), so name the repo's file absolutely.
	a14, err := filepath.Abs("../../examples/multi-tenant/a14-zeek.json")
	if err != nil {
		t.Fatal(err)
	}
	o := options{config: writeConfig(t,
		obj{"template": testPipelineJSON(t), "train": trainF1, "source": replayF1,
			"stream": obj{"chunk_rows": 64}, "alerts": pktAlerts},
		obj{"name": "flows", "template": a14, "train": trainF1,
			"source": obj{"replay": obj{"pcap": filepath.Join(dir, "capture.pcap")}},
			"alerts": flowAlerts, "connlog": flowConn},
	)}
	var out bytes.Buffer
	if err := run(o, &out, make(chan os.Signal)); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, name := range []string{"lumend-test", "flows"} {
		if !strings.Contains(out.String(), `pipeline "`+name+`" stopped`) {
			t.Fatalf("pipeline %s did not stop cleanly:\n%s", name, out.String())
		}
	}
	for path, want := range map[string]string{pktAlerts: `"unit":"packet"`, flowAlerts: `"unit":"flow"`, flowConn: "#fields"} {
		data, err := os.ReadFile(path)
		if err != nil || !bytes.Contains(data, []byte(want)) {
			t.Fatalf("sink %s lacks %q (err %v)", path, want, err)
		}
	}
}

// TestBootFailureStartsNothing: a failure anywhere in the boot — a later
// pipeline that cannot be built, an HTTP address already taken — returns
// the error with no pipeline started and nothing left behind: the feed's
// socket is closed again and no goroutine survives.
func TestBootFailureStartsNothing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	tpl := testPipelineJSON(t)
	for _, tc := range []struct {
		name, listen string
		second       obj
		want         string
	}{
		{"http address taken", taken.Addr().String(),
			obj{"name": "second", "template": tpl, "train": trainF1, "source": replayF1, "alerts": ""}, "address already in use"},
		{"pipeline k cannot be built", "",
			obj{"name": "second", "template": tpl, "model": "no-such-model.json", "source": replayF1}, "no-such-model.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sock := filepath.Join(dir, "feed.sock")
			before := runtime.NumGoroutine()
			o := options{listen: tc.listen, config: writeConfig(t,
				obj{"template": tpl, "train": trainF1, "source": obj{"feed": "unix:" + sock},
					"alerts": filepath.Join(dir, "alerts.jsonl")},
				tc.second)}
			var out bytes.Buffer
			err := run(o, &out, make(chan os.Signal))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want error containing %q", err, tc.want)
			}
			if strings.Contains(out.String(), "running") {
				t.Fatalf("a pipeline was started:\n%s", out.String())
			}
			if _, err := os.Stat(sock); !os.IsNotExist(err) {
				t.Fatalf("the feed socket outlived the failed boot (stat err %v)", err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before the boot, %d after it failed", before, runtime.NumGoroutine())
				}
			}
		})
	}
}

// syncBuf is a bytes.Buffer safe for the writer (run) and reader (test)
// to use concurrently.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// writePcapInto atomically drops pkts as a pcap file into a watched dir.
func writePcapInto(t *testing.T, dir, name string, link netpkt.LinkType, pkts []*dataset.Record) {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), name)
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(f, link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

// TestRunScriptedSwapOnWatch exercises the long-running path end to end:
// a watched capture directory feeds the pipeline, the scripted hot swap
// promotes the (identical) candidate under live ingest, and a SIGTERM
// drains cleanly.
func TestRunScriptedSwapOnWatch(t *testing.T) {
	ds := testDS(t)
	plPath := testPipelineJSON(t)
	model := trainModelFile(t, plPath, ds)
	watchDir := t.TempDir()
	writePcapInto(t, watchDir, "trace-000.pcap", ds.Link, ds.Packets[:100])

	alerts := filepath.Join(t.TempDir(), "alerts.jsonl")
	o := options{config: writeConfig(t, obj{
		"template": plPath, "model": model,
		"source": obj{"watch": obj{"dir": watchDir, "poll_ms": 10}},
		"stream": obj{"chunk_rows": 8}, "alerts": alerts,
		"swap": obj{"model": model, "shadow_chunks": 2, "max_disagree": 0},
	})}
	out := &syncBuf{}
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(o, out, sigs) }()

	// Keep rotating fresh captures in until a post-promotion verdict
	// (model generation 2) lands in the alert stream.
	deadline := time.Now().Add(20 * time.Second)
	promoted := false
	for i := 1; !promoted; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no generation-2 alert before deadline\noutput:\n%s", out.String())
		}
		base := (i * 20) % (len(ds.Packets) - 20)
		writePcapInto(t, watchDir, fmt.Sprintf("trace-%03d.pcap", i), ds.Link, ds.Packets[base:base+20])
		time.Sleep(50 * time.Millisecond)
		if data, err := os.ReadFile(alerts); err == nil {
			promoted = bytes.Contains(data, []byte(`"model_gen":2`))
		}
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("lumend did not drain on SIGTERM\noutput:\n%s", out.String())
	}
	got := out.String()
	if !strings.Contains(got, "swap promoted by auto") {
		t.Fatalf("no promotion summary in output:\n%s", got)
	}
	if !strings.Contains(got, `pipeline "lumend-test" stopped`) {
		t.Fatalf("no clean shutdown line in output:\n%s", got)
	}
}
