package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: lumen/internal/core
cpu: test
BenchmarkStreamBatch-8        1   5000000 ns/op   123456 peak-B   2048 B/op   17 allocs/op
BenchmarkStreamChunk64-8      1   7000000 ns/op    45678 peak-B
BenchmarkStreamChunk64-8      1   6000000 ns/op    44000 peak-B
PASS
ok  	lumen/internal/core	1.0s
`

func TestParseMetrics(t *testing.T) {
	run, err := parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if run.Pkg != "lumen/internal/core" {
		t.Errorf("pkg = %q", run.Pkg)
	}
	if len(run.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (best-of-N merge)", len(run.Benchmarks))
	}
	b := run.Benchmarks[0]
	if b.Name != "BenchmarkStreamBatch" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", b.Name)
	}
	if b.Metrics["peak-B"] != 123456 || b.Metrics["B/op"] != 2048 || b.Metrics["allocs/op"] != 17 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	// Best-of-N keeps the faster run's metrics alongside its ns/op.
	c := run.Benchmarks[1]
	if c.NsPerOp != 6000000 {
		t.Errorf("ns/op = %v, want best-of-N 6000000", c.NsPerOp)
	}
	if c.Metrics["peak-B"] != 44000 {
		t.Errorf("metrics not taken from the fastest run: %v", c.Metrics)
	}
}

func TestParseNoMetrics(t *testing.T) {
	run, err := parse(bufio.NewScanner(strings.NewReader(
		"BenchmarkX-4   10   100 ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	if run.Benchmarks[0].Metrics != nil {
		t.Errorf("plain ns/op line should have nil metrics: %v", run.Benchmarks[0].Metrics)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("PASS\n"))); err == nil {
		t.Error("no benchmark lines should be an error")
	}
}

// pairLine is a canned lumenperf result line.
func pairLine(pps, heap float64, failed int) string {
	return fmt.Sprintf(`{"correct":true,"attempted":1000,"failed":%d,"metrics":{"pps":{"value":%g,"unit":"packets/s"},"peak_heap_mb":{"value":%g,"unit":"MB"}}}`+"\n", failed, pps, heap)
}

// TestPairsReport: on canned result lines the report pairs run i with
// run i, counts ties for neither side, and applies the gain rule (nine
// tenths of the pairs and more than the base's quartile distance) and
// the bound.
func TestPairsReport(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"pps","unit":"packets/s","better":"higher","bound":0.25},
		{"name":"peak_heap_mb","unit":"MB","better":"lower","bound":0.15}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	var base, change strings.Builder
	for i := 0; i < 10; i++ {
		// pps: the change wins nine pairs and ties the tenth, medians far
		// apart. Heap: the change is 20 % worse in every pair.
		base.WriteString(pairLine(100+float64(i), 10, 0))
		if i == 9 {
			change.WriteString(pairLine(109, 12, 1))
		} else {
			change.WriteString(pairLine(150+float64(i), 12, 0))
		}
	}
	b, err := readResults(strings.NewReader(base.String()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := readResults(strings.NewReader(change.String() + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := pairsReport(&out, spec, b, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("report has %d lines, want a summary, a header and two metrics:\n%s", len(lines), out.String())
	}
	if want := "10 pairs; failed share: base 0, change 0.0001"; lines[0] != want {
		t.Errorf("summary = %q, want %q", lines[0], want)
	}
	for i, want := range [][]string{
		{"pps", "higher", "104.5 [102.25, 106.75]", "153.5 [151.25, 155.75]", "1.469", "9/10", "0.25", "gain"},
		{"peak_heap_mb", "lower", "10 [10, 10]", "12 [12, 12]", "1.200", "0/10", "0.15", "past bound"},
	} {
		for _, field := range want {
			if !strings.Contains(lines[2+i], field) {
				t.Errorf("row %q lacks %q", lines[2+i], field)
			}
		}
	}

	if err := pairsReport(&out, spec, b, c[:9]); err == nil {
		t.Error("an unpaired run should be an error")
	}
	if _, err := readResults(strings.NewReader("lumenperf: killed\n")); err == nil {
		t.Error("a line that is no result should be an error")
	}
}
