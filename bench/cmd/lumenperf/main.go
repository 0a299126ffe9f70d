// Command lumenperf runs one workload of Lumen's end-to-end benchmark in
// this one foreground process: nothing is spawned, and every goroutine,
// listener, mapping and temporary directory it creates is joined, closed
// or removed before it exits. The last line of standard output is the
// result as one JSON object; see bench/README.md.
//
// Usage:
//
//	lumenperf -workload pkt_rf_file -seed 1 -seconds 5 -trace 0
//	lumenperf -workload pkt_rf_file -seed 1 -budget
//	lumenperf -list
//	lumenperf -spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lumen/bench/harness"
)

// procs pins GOMAXPROCS to the sandbox's two cores, so a run means the
// same thing on a larger box.
const procs = 2

// deadline turns a hang into a non-zero exit well inside the driver's
// per-run limit.
const deadline = 150 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs and the engine")
		seconds = flag.Int("seconds", harness.RunSeconds, "how long the timed passes run")
		trace   = flag.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: traced run, per-layer metrics")
		budget  = flag.Bool("budget", false, "traced run that prints the per-layer budget table and fails when the rows of a single-goroutine workload miss the pass wall by more than 10%")
		dir     = flag.String("dir", filepath.Join("bench", "out"), "directory for temporary captures and trace files")
		list    = flag.Bool("list", false, "list the workloads and exit")
		spec    = flag.Bool("spec", false, "print the content of BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		out, err := json.MarshalIndent(harness.Spec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "lumenperf:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	if *list {
		for _, w := range harness.Workloads() {
			fmt.Printf("%-24s %s\n", w.Name, w.Why)
		}
		return
	}
	os.Exit(run(*name, *seed, *seconds, *trace == 1 || *budget, *budget, *dir))
}

func run(name string, seed int64, seconds int, trace, budget bool, dir string) int {
	w, ok := harness.Get(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lumenperf: unknown workload %q (try -list)\n", name)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lumenperf:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(dir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lumenperf:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "lumenperf: %s still running after %v, giving up\n", name, deadline)
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res := result{Metrics: map[string]measured{}}
	var metrics []harness.Metric
	if trace {
		t, err := harness.RunTrace(w, seed, tmp, os.Stdout)
		if err != nil {
			return fail(err, int64(w.Packets()))
		}
		if err := t.Recorder.WriteJSON(filepath.Join(dir, w.Name+".trace.json")); err != nil {
			return fail(err, t.Attempted)
		}
		t.PrintBudget(os.Stdout)
		if budget {
			if err := t.CheckBudget(); err != nil {
				return fail(err, t.Attempted)
			}
		}
		metrics, res.Attempted = t.Metrics(), t.Attempted
	} else {
		r, err := harness.RunE2E(w, seed, time.Duration(seconds)*time.Second, tmp, os.Stdout)
		if err != nil {
			return fail(err, int64(w.Packets()))
		}
		harness.PrintStat(os.Stdout, "pps", "packets/s", r.PPS)
		harness.PrintStat(os.Stdout, "cpu_us_per_packet", "us", r.CPUus)
		harness.PrintStat(os.Stdout, "allocs_per_packet", "count", r.Allocs)
		harness.PrintStat(os.Stdout, "alloc_bytes_per_packet", "B", r.AllocBytes)
		harness.PrintStat(os.Stdout, "peak_heap_mb", "MB", r.PeakHeapMB)
		if metrics, err = r.Metrics(); err != nil {
			return fail(err, r.Attempted)
		}
		res.Attempted = r.Attempted
	}
	for _, m := range metrics {
		fmt.Printf("%-40s %16.4f %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = measured{m.Value, m.Unit}
	}
	res.Correct = true
	return emit(res, 0)
}

// fail reports a run whose outputs were wrong or that could not finish:
// every offered packet counts as failed.
func fail(err error, attempted int64) int {
	fmt.Fprintln(os.Stderr, "lumenperf:", err)
	return emit(result{Attempted: attempted, Failed: attempted, Metrics: map[string]measured{}}, 1)
}

func emit(r result, code int) int {
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lumenperf:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}
