package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lumen/internal/benchsuite"
	"lumen/internal/report"
)

func TestRunStaticFigures(t *testing.T) {
	if err := run(benchsuite.Config{Scale: 0.2, Seed: 1}, options{fig: "table1"}); err != nil {
		t.Fatal(err)
	}
	if err := run(benchsuite.Config{Scale: 0.2, Seed: 1}, options{fig: "1a"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScopedFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := benchsuite.Config{
		Scale:      0.2,
		Seed:       1,
		AlgIDs:     []string{"A14", "A15"},
		DatasetIDs: []string{"F1", "F4"},
	}
	if err := run(cfg, options{fig: "8", out: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidateScoped(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := benchsuite.Config{
		Scale:      0.2,
		Seed:       1,
		AlgIDs:     []string{"A07", "A10", "A14"},
		DatasetIDs: []string{"F0", "F1", "F2", "F4"},
	}
	if err := run(cfg, options{fig: "validate"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadScope(t *testing.T) {
	if err := run(benchsuite.Config{AlgIDs: []string{"A99"}}, options{fig: "8"}); err == nil {
		t.Fatal("unknown algorithm scope should fail")
	}
}

func TestSplitIDsTrimsTokens(t *testing.T) {
	got := splitIDs(" A13, A14 ,,A15, ")
	want := []string{"A13", "A14", "A15"}
	if len(got) != len(want) {
		t.Fatalf("splitIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitIDs = %v, want %v", got, want)
		}
	}
	if splitIDs("") != nil {
		t.Fatal("empty scope must stay nil (= all)")
	}
}

func TestRunRejectsUnknownFig(t *testing.T) {
	err := run(benchsuite.Config{Scale: 0.2, Seed: 1}, options{fig: "42"})
	if err == nil {
		t.Fatal("unknown -fig value should fail, not silently print nothing")
	}
	if !strings.Contains(err.Error(), "42") || !strings.Contains(err.Error(), "1b") {
		t.Fatalf("error should name the bad value and list valid ones: %v", err)
	}
}

func TestRunAcceptsFig1bAnd1c(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := benchsuite.Config{
		Scale:      0.2,
		Seed:       1,
		AlgIDs:     []string{"A14"},
		DatasetIDs: []string{"F1", "F4"},
	}
	for _, fig := range []string{"1b", "1c"} {
		if err := run(cfg, options{fig: fig}); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
	}
}

func TestRunWritesProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := benchsuite.Config{
		Scale:      0.2,
		Seed:       1,
		Profile:    true,
		AlgIDs:     []string{"A14"},
		DatasetIDs: []string{"F1"},
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := run(cfg, options{fig: "8", profile: true, profileOut: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var profs []benchsuite.OpProfile
	if err := json.Unmarshal(data, &profs); err != nil {
		t.Fatal(err)
	}
	if len(profs) == 0 {
		t.Fatal("profile JSON is empty")
	}
	var sawAllocs bool
	for _, p := range profs {
		if p.Count <= 0 {
			t.Errorf("op %s has count %d", p.Func, p.Count)
		}
		if p.Allocs > 0 {
			sawAllocs = true
		}
	}
	if !sawAllocs {
		t.Error("profiling on but no op recorded allocations")
	}
}

func TestRunWritesTraceAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	cfg := benchsuite.Config{
		Scale:      0.2,
		Seed:       1,
		AlgIDs:     []string{"A07"},
		DatasetIDs: []string{"F1"},
	}
	dir := t.TempDir()
	opts := options{
		fig:        "8",
		traceOut:   filepath.Join(dir, "trace.json"),
		traceJSONL: filepath.Join(dir, "trace.jsonl"),
		metricsOut: filepath.Join(dir, "metrics.prom"),
	}
	if err := run(cfg, opts); err != nil {
		t.Fatal(err)
	}

	// The Chrome trace must be valid JSON with the expected span names.
	data, err := os.ReadFile(opts.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	for _, want := range []string{"suite", "batch:same-dataset", "run:A07 F1→F1", "op:train"} {
		if !names[want] {
			t.Errorf("trace missing %q span (have %d events)", want, len(trace.TraceEvents))
		}
	}

	// The JSONL export must be one JSON object per line.
	jl, err := os.ReadFile(opts.traceJSONL)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(jl)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("jsonl line %d invalid: %v", i+1, err)
		}
	}

	// The Prometheus snapshot must include suite, op and cache metrics.
	prom, err := os.ReadFile(opts.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lumen_runs_total 1",
		"lumen_suite_workers",
		"lumen_worker_utilization",
		"lumen_cache_misses_total",
		`lumen_ops_total{op="train"}`,
		"lumen_op_wall_seconds_bucket",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestREADMEFlagTable pins README.md's "lumenbench flags" table to the
// flag set: paste what the failure prints between the markers.
func TestREADMEFlagTable(t *testing.T) {
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := report.FlagTable("lumenbench", flag.CommandLine)
	if !bytes.Contains(doc, []byte(want)) {
		t.Errorf("README.md's lumenbench flag table is stale; it should read:\n%s", want)
	}
}
