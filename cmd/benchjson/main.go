// Command benchjson converts `go test -bench` output into a
// machine-readable JSON file so kernel speedups can be tracked across
// PRs (BENCH_PR3.json is the first datapoint). It reads benchmark
// output on stdin and merges one labelled run into the output file:
//
//	go test -bench . -benchtime=300ms ./internal/mlkit/ | benchjson -label current -out BENCH_PR3.json
//
// Runs are keyed by label ("baseline", "current", ...), so the file can
// hold a before/after pair; when both a baseline and a current run are
// present, a speedup table (baseline ns/op ÷ current ns/op per shared
// benchmark) is recomputed on every merge.
//
// With -pairs it instead judges an end-to-end comparison (`make pairs`):
// -base and -change name files holding one bench/cmd/lumenperf result
// line per run, run as alternating pairs, and -spec names BENCHMARK.json;
// it prints, per end-to-end metric, both medians and quartile ranges, the
// pairs each side won, the metric's bound and a verdict.
//
// With -micro it judges a kernel-level comparison (`make micro-pairs`):
// -base and -change name files holding the `go test -bench` output of N
// alternating runs of two test binaries; it judges each benchmark's
// ns/op as -pairs judges a metric that has no bound.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line. Metrics holds any extra
// `<value> <unit>` pairs the benchmark reported after ns/op (B/op,
// allocs/op, custom b.ReportMetric units like peak-B), keyed by unit.
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Run is one labelled `go test -bench` invocation.
type Run struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Pkg        string  `json:"pkg,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// File is the merged on-disk document.
type File struct {
	Runs     map[string]*Run    `json:"runs"`
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

// parseBench parses one benchmark result line; ok is false for a line
// that names a benchmark but carries no ns/op result.
func parseBench(line string) (b Bench, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return b, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return b, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return b, false
	}
	// Any further `<value> <unit>` pairs (B/op, allocs/op,
	// b.ReportMetric extras) become Metrics entries.
	var metrics map[string]float64
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		if metrics == nil {
			metrics = map[string]float64{}
		}
		metrics[fields[i+1]] = v
	}
	// Strip the -N GOMAXPROCS suffix so labels are stable
	// across machines (BenchmarkMLPFit-8 -> BenchmarkMLPFit).
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return Bench{Name: name, Iterations: iters, NsPerOp: ns, Metrics: metrics}, true
}

func parse(r *bufio.Scanner) (*Run, error) {
	run := &Run{}
	for r.Scan() {
		line := r.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			// Multiple packages can share one pipe (BENCH_PR10.json spans
			// daemon + core); record each pkg line once, comma-joined.
			p := strings.TrimPrefix(line, "pkg: ")
			if run.Pkg == "" {
				run.Pkg = p
			} else if !strings.Contains(","+run.Pkg+",", ","+p+",") {
				run.Pkg += "," + p
			}
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBench(line)
			if !ok {
				continue
			}
			// With -count=N the same benchmark appears N times; keep the
			// fastest run (best-of-N is the standard noise filter on
			// shared machines).
			merged := false
			for i := range run.Benchmarks {
				if run.Benchmarks[i].Name == b.Name {
					if b.NsPerOp < run.Benchmarks[i].NsPerOp {
						run.Benchmarks[i] = b
					}
					merged = true
					break
				}
			}
			if !merged {
				run.Benchmarks = append(run.Benchmarks, b)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(run.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return run, nil
}

func main() {
	label := flag.String("label", "current", "label for this run (e.g. baseline, current)")
	out := flag.String("out", "BENCH_PR3.json", "output JSON file; existing runs with other labels are kept")
	pairs := flag.Bool("pairs", false, "compare two files of lumenperf result lines run as alternating pairs, instead of merging `go test -bench` output")
	spec := flag.String("spec", "BENCHMARK.json", "with -pairs: the benchmark declaration naming the end-to-end metrics and their bounds")
	micro := flag.Bool("micro", false, "compare two files of `go test -bench` output from test binaries run as alternating pairs")
	base := flag.String("base", "", "with -pairs: one result line per run of the base revision; with -micro: the base binary's output")
	change := flag.String("change", "", "with -pairs: one result line per run of the change, in the same order; with -micro: the change binary's output")
	flag.Parse()
	if *pairs || *micro {
		run := runMicro
		if *pairs {
			run = func(w io.Writer, b, c string) error { return runPairs(w, *spec, b, c) }
		}
		if err := run(os.Stdout, *base, *change); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	run, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	doc := &File{Runs: map[string]*Run{}}
	if prev, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(prev, doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", *out, err)
			os.Exit(1)
		}
		if doc.Runs == nil {
			doc.Runs = map[string]*Run{}
		}
	}
	doc.Runs[*label] = run

	doc.Speedups = nil
	if base, cur := doc.Runs["baseline"], doc.Runs["current"]; base != nil && cur != nil {
		ns := map[string]float64{}
		for _, b := range base.Benchmarks {
			ns[b.Name] = b.NsPerOp
		}
		for _, c := range cur.Benchmarks {
			if b, ok := ns[c.Name]; ok && c.NsPerOp > 0 {
				if doc.Speedups == nil {
					doc.Speedups = map[string]float64{}
				}
				doc.Speedups[c.Name] = b / c.NsPerOp
			}
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks as %q to %s\n", len(run.Benchmarks), *label, *out)
}
