package harness

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

const (
	// SetupRounds is how many complete set-ups one run performs;
	// setup_s is their median, the timed passes use the last.
	SetupRounds = 3
	// MinPasses and MaxPasses bound the timed passes of one run.
	MinPasses = 6
	MaxPasses = 32
	mb        = 1 << 20
)

// Stat summarizes one per-pass quantity over the timed passes.
type Stat struct {
	Median, Min, Max float64
	N                int
}

func statOf(xs []float64) Stat {
	return Stat{Median: median(xs), Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs)}
}

// E2E is the result of one untraced run.
type E2E struct {
	Setups    []time.Duration
	Attempted int64
	// The per-pass statistics behind the end-to-end metrics.
	PPS, CPUus, Allocs, AllocBytes, PeakHeapMB Stat
}

// Metrics lists the end-to-end metrics in BENCHMARK.json order.
func (r *E2E) Metrics() ([]Metric, error) {
	secs := make([]float64, len(r.Setups))
	for i, d := range r.Setups {
		secs[i] = d.Seconds()
	}
	return fill(EndToEnd, map[string]float64{
		"setup_s":                median(secs),
		"pps":                    r.PPS.Median,
		"cpu_us_per_packet":      r.CPUus.Median,
		"allocs_per_packet":      r.Allocs.Median,
		"alloc_bytes_per_packet": r.AllocBytes.Median,
		"peak_heap_mb":           r.PeakHeapMB.Median,
	})
}

// RunE2E performs SetupRounds set-ups and then timed untraced passes for
// about the given duration (at least MinPasses). Progress goes to log.
func RunE2E(w Workload, seed int64, measure time.Duration, dir string, log io.Writer) (*E2E, error) {
	r := &E2E{}
	var env *Env
	for i := 0; i < SetupRounds; i++ {
		if env != nil {
			// Tear the previous round down completely, so each
			// set-up starts from the same state.
			if err := env.Close(); err != nil {
				return nil, err
			}
			env = nil
			runtime.GC()
		}
		e, err := Setup(w, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		env = e
		r.Setups = append(r.Setups, e.Took)
		if i == 0 {
			PrintHeader(log, e)
		}
		fmt.Fprintf(log, "set-up %d/%d: %.3f s\n", i+1, SetupRounds, e.Took.Seconds())
	}
	defer env.Close()

	var pps, cpu, allocs, abytes, peak []float64
	start := time.Now()
	for len(pps) < MinPasses || (time.Since(start) < measure && len(pps) < MaxPasses) {
		p, err := env.RunPass(PassOpts{})
		if err != nil {
			return nil, fmt.Errorf("timed pass %d: %w", len(pps)+1, err)
		}
		n := float64(p.Packets)
		pps = append(pps, p.PPS())
		cpu = append(cpu, float64(p.CPU.Nanoseconds())/1e3/n)
		allocs = append(allocs, float64(p.Mallocs)/n)
		abytes = append(abytes, float64(p.AllocBytes)/n)
		peak = append(peak, float64(p.PeakHeap)/mb)
		r.Attempted += int64(p.Packets)
	}
	r.PPS, r.CPUus, r.Allocs, r.AllocBytes, r.PeakHeapMB = statOf(pps), statOf(cpu), statOf(allocs), statOf(abytes), statOf(peak)
	return r, nil
}

// PrintHeader prints what a run is measuring: the workload, its capture
// (digest, packets, wire bytes) and the fixed execution settings.
func PrintHeader(w io.Writer, e *Env) {
	c := e.Cap
	fmt.Fprintf(w, "workload %s seed %d GOMAXPROCS %d chunk_rows %d\n", e.W.Name, e.Seed, runtime.GOMAXPROCS(0), ChunkRows)
	fmt.Fprintf(w, "capture sha256 %s packets %d wire_bytes %d files %d\n", c.Digest, c.Packets, c.WireBytes, max(c.Files, 1))
	fmt.Fprintf(w, "reference verdicts %d alerts %d conn-log lines %d\n", e.Ref.Verdicts, e.Ref.Alerts, e.Ref.ConnLines)
}

// PrintStat prints one end-to-end quantity with its spread over the passes.
func PrintStat(w io.Writer, name, unit string, s Stat) {
	fmt.Fprintf(w, "%-24s %14.4f %-9s (min %.4f max %.4f over %d passes)\n", name, s.Median, unit, s.Min, s.Max, s.N)
}
