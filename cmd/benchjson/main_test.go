package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// the bound at ten pairs; at five, the same runs' first halves, it
// gives no verdict.
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

	out.Reset()
	if err := pairsReport(&out, spec, b[:5], c[:5]); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "5 pairs;") {
		t.Fatalf("report over five pairs:\n%s", out.String())
	}
	for i, want := range [][]string{
		{"pps", "5/5", "too few pairs"},
		{"peak_heap_mb", "0/5", "too few pairs"},
	} {
		for _, field := range want {
			if !strings.Contains(lines[2+i], field) {
				t.Errorf("five pairs: row %q lacks %q", lines[2+i], field)
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

// writeSides writes a base and a change output into a fresh directory
// and returns their paths.
func writeSides(t *testing.T, base, change string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	bp, cp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "change.txt")
	if err := os.WriteFile(bp, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, []byte(change), 0o644); err != nil {
		t.Fatal(err)
	}
	return bp, cp
}

// microRows runs the -micro report over the two outputs and returns its
// rows below the summary and header, each with its fields single-spaced.
func microRows(t *testing.T, base, change string) []string {
	t.Helper()
	bp, cp := writeSides(t, base, change)
	var out strings.Builder
	if err := runMicro(&out, bp, cp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("report has no header:\n%s", out.String())
	}
	rows := lines[2:]
	for i, row := range rows {
		rows[i] = strings.Join(strings.Fields(row), " ")
	}
	return rows
}

// wantRows checks that row i holds every field of want[i].
func wantRows(t *testing.T, rows []string, want [][]string) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("report has %d rows, want %d:\n%s", len(rows), len(want), strings.Join(rows, "\n"))
	}
	for i, fields := range want {
		for _, field := range fields {
			if !strings.Contains(rows[i], field) {
				t.Errorf("row %q lacks %q", rows[i], field)
			}
		}
	}
}

// TestMicroReport: the i-th result of a benchmark on one side is paired
// with its i-th on the other, across interleaved sub-benchmarks, and each
// benchmark is judged by the pairs rule with no bound.
func TestMicroReport(t *testing.T) {
	var base, change strings.Builder
	base.WriteString("goos: linux\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&base, "BenchmarkK/fast-2 100 %d ns/op\nBenchmarkK/even-2 100 %d ns/op\nBenchmarkK/slow-2 100 %d ns/op 0 B/op\nPASS\n", 200+i, 100+i, 50+i)
		fmt.Fprintf(&change, "BenchmarkK/fast-2 100 %d ns/op\nBenchmarkK/even-2 100 %d ns/op\nBenchmarkK/slow-2 100 %d ns/op 0 B/op\nPASS\n", 150+i, 109-i, 60+i)
	}
	wantRows(t, microRows(t, base.String(), change.String()), [][]string{
		{"BenchmarkK/even (ns/op)", "104.5", "104.5", "1.000", "5/10 5/10", "level"},
		{"BenchmarkK/fast (ns/op)", "204.5 [202.25, 206.75]", "154.5", "0.756", "10/10 0/10", "gain"},
		{"BenchmarkK/slow (ns/op)", "54.5", "64.5", "1.183", "0/10 10/10", "loss"},
		{"BenchmarkK/slow (B/op)", "0 [0, 0] 0 [0, 0]", "0/10 0/10", "level"},
	})
}

// TestMicroReportJudgesAllocations: B/op and allocs/op are judged as
// ns/op is, better lower, wherever both sides report them; a unit only
// one side reports is listed as only in that side.
func TestMicroReportJudgesAllocations(t *testing.T) {
	var base, change strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&base, "BenchmarkK/cold-2 10 %d ns/op %d B/op %d allocs/op\nBenchmarkK/warm-2 10 %d ns/op\n", 1000+i, 9000+i, 300, 100+i)
		fmt.Fprintf(&change, "BenchmarkK/cold-2 10 %d ns/op %d B/op %d allocs/op\nBenchmarkK/warm-2 10 %d ns/op %d B/op %d allocs/op\n", 1000+i, 6000+i, 100, 100+i, 50, 9)
	}
	wantRows(t, microRows(t, base.String(), change.String()), [][]string{
		{"BenchmarkK/cold (ns/op)", "1.000", "level"},
		{"BenchmarkK/cold (B/op)", "9004.5 [9002.2, 9006.8]", "6004.5", "10/10 0/10", "gain"},
		{"BenchmarkK/cold (allocs/op)", "300 [300, 300] 100 [100, 100]", "0.333", "10/10 0/10", "gain"},
		{"BenchmarkK/warm (ns/op)", "level"},
		{"BenchmarkK/warm (B/op)", "- 50 [50, 50]", "only in change"},
		{"BenchmarkK/warm (allocs/op)", "- 9 [9, 9]", "only in change"},
	})
}

// TestMicroReportListsOneSidedBenchmarks: a benchmark only one side ran
// is listed with that side's median as only in base or only in change,
// and a base that ran none of the benchmarks reads as such, not as an
// error.
func TestMicroReportListsOneSidedBenchmarks(t *testing.T) {
	var base, change strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&base, "BenchmarkK/kept-2 100 %d ns/op\nBenchmarkK/gone-2 100 %d ns/op\nPASS\n", 100+i, 50+i)
		fmt.Fprintf(&change, "BenchmarkK/kept-2 100 %d ns/op\nBenchmarkK/new-2 100 %d ns/op 8 B/op 1 allocs/op\nPASS\n", 100+i, 70+i)
	}
	wantRows(t, microRows(t, base.String(), change.String()), [][]string{
		{"BenchmarkK/gone (ns/op)", "51.5 [50.75, 52.25] -", "only in base"},
		{"BenchmarkK/kept (ns/op)", "0/4 0/4", "too few pairs"},
		{"BenchmarkK/new (ns/op)", "- 71.5 [70.75, 72.25]", "only in change"},
		{"BenchmarkK/new (B/op)", "- 8 [8, 8]", "only in change"},
		{"BenchmarkK/new (allocs/op)", "- 1 [1, 1]", "only in change"},
	})
	wantRows(t, microRows(t, "PASS\n", change.String()), [][]string{
		{"BenchmarkK/kept (ns/op)", "- 101.5", "only in change"},
		{"BenchmarkK/new (ns/op)", "only in change"},
		{"BenchmarkK/new (B/op)", "only in change"},
		{"BenchmarkK/new (allocs/op)", "only in change"},
	})
	bp, cp := writeSides(t, "PASS\n", "PASS\n")
	if err := runMicro(io.Discard, bp, cp); err == nil {
		t.Error("two outputs with no benchmark results should be an error")
	}
}
