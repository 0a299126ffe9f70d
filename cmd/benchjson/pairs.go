package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the pairs report reads: the
// end-to-end metrics, which way each is better, and the share by which
// it may worsen before that counts as a regression.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric; a Bound of 0 declares none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultLine is the last line bench/cmd/lumenperf prints for one run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// readResults parses one result line per run; blank lines are skipped.
func readResults(r io.Reader) ([]resultLine, error) {
	var out []resultLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("run %d: not a result line: %w", len(out)+1, err)
		}
		if l.Metrics == nil {
			return nil, fmt.Errorf("run %d: result line has no metrics", len(out)+1)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// quantile is the q-quantile of sorted, interpolated linearly between
// the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// side summarizes one metric over one side's runs.
type side struct{ q1, median, q3 float64 }

func summarize(runs []resultLine, metric string) (side, []float64, error) {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return side{}, nil, fmt.Errorf("run %d reports no %s", i+1, metric)
		}
		vals[i] = m.Value
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return side{quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)}, vals, nil
}

// failedShare is the share of attempted operations a side's runs failed;
// a run that was not correct fails everything it attempted.
func failedShare(runs []resultLine) float64 {
	var failed, attempted int64
	for _, r := range runs {
		attempted += r.Attempted
		if r.Correct {
			failed += r.Failed
		} else {
			failed += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// pairsReport compares two streams of result lines run as alternating
// pairs (run i of base against run i of change) and prints, per
// end-to-end metric of the spec: both medians with their quartiles, the
// ratio of the medians, how many pairs each side won (ties count for
// neither), the spec's bound, and a verdict by the rule the benchmark
// is judged by: "gain" when the change wins at least nine tenths of the
// pairs and the medians differ by more than the distance between the
// base's quartiles, "past bound" when the change's median is worse than
// the base's by more than the bound, "loss" when the base wins by the
// gain rule, "level" otherwise.
func pairsReport(w io.Writer, spec benchSpec, base, change []resultLine) error {
	if len(base) == 0 || len(base) != len(change) {
		return fmt.Errorf("%d base runs and %d change runs: want the same number, at least one", len(base), len(change))
	}
	fmt.Fprintf(w, "%d pairs; failed share: base %.4g, change %.4g\n", len(base), failedShare(base), failedShare(change))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbetter\tbase median [q1, q3]\tchange median [q1, q3]\tchange/base\twins\tlosses\tbound\tverdict")
	for _, m := range spec.EndToEnd {
		b, bv, err := summarize(base, m.Name)
		if err != nil {
			return fmt.Errorf("base: %w", err)
		}
		c, cv, err := summarize(change, m.Name)
		if err != nil {
			return fmt.Errorf("change: %w", err)
		}
		sign := 1.0 // positive differences are improvements
		if m.Better == "lower" {
			sign = -1
		}
		wins, losses := 0, 0
		for i := range bv {
			switch d := sign * (cv[i] - bv[i]); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			}
		}
		gain := sign * (c.median - b.median)
		verdict := "level"
		switch {
		case 10*wins >= 9*len(bv) && gain > b.q3-b.q1:
			verdict = "gain"
		case m.Bound > 0 && b.median != 0 && -gain/b.median > m.Bound:
			verdict = "past bound"
		case 10*losses >= 9*len(bv) && -gain > b.q3-b.q1:
			verdict = "loss"
		}
		ratio := 0.0
		if b.median != 0 {
			ratio = c.median / b.median
		}
		fmt.Fprintf(tw, "%s (%s)\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%.3f\t%d/%d\t%d/%d\t%g\t%s\n",
			m.Name, m.Unit, m.Better, b.median, b.q1, b.q3, c.median, c.q1, c.q3, ratio, wins, len(bv), losses, len(bv), m.Bound, verdict)
	}
	return tw.Flush()
}

// runPairs is the -pairs mode: the spec and the two result-line files
// come from disk, the report goes to w.
func runPairs(w io.Writer, specPath, basePath, changePath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if len(spec.EndToEnd) == 0 {
		return fmt.Errorf("%s declares no end_to_end metrics", specPath)
	}
	sides, err := readSides(basePath, changePath, readResults)
	if err != nil {
		return err
	}
	return pairsReport(w, spec, sides[0], sides[1])
}

// readSides reads the base's and the change's runs from their files.
func readSides(basePath, changePath string, read func(io.Reader) ([]resultLine, error)) ([2][]resultLine, error) {
	var sides [2][]resultLine
	for i, path := range []string{basePath, changePath} {
		f, err := os.Open(path)
		if err != nil {
			return sides, err
		}
		sides[i], err = read(f)
		f.Close()
		if err != nil {
			return sides, fmt.Errorf("%s: %w", path, err)
		}
	}
	return sides, nil
}

// readBenchRuns reads the `go test -bench` output of N runs of one test
// binary as one resultLine per run: the i-th ns/op result of a
// benchmark belongs to run i, whose Metrics key it by the benchmark's
// name.
func readBenchRuns(r io.Reader) ([]resultLine, error) {
	var runs []resultLine
	seen := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		b, ok := parseBench(sc.Text())
		if !ok {
			continue
		}
		i := seen[b.Name]
		seen[b.Name]++
		if i == len(runs) {
			runs = append(runs, resultLine{Correct: true, Metrics: map[string]metricValue{}})
		}
		runs[i].Metrics[b.Name] = metricValue{b.NsPerOp}
	}
	return runs, sc.Err()
}

// runMicro is the -micro mode: two test binaries' outputs, run as
// alternating pairs, judged by pairsReport with each benchmark of the
// base's first run, by name, as a metric whose ns/op is better lower
// and that has no bound.
func runMicro(w io.Writer, basePath, changePath string) error {
	sides, err := readSides(basePath, changePath, readBenchRuns)
	if err != nil {
		return err
	}
	if len(sides[0]) == 0 {
		return fmt.Errorf("%s: no benchmark results", basePath)
	}
	var spec benchSpec
	for name := range sides[0][0].Metrics {
		spec.EndToEnd = append(spec.EndToEnd, metricSpec{Name: name, Unit: "ns/op", Better: "lower"})
	}
	sort.Slice(spec.EndToEnd, func(i, j int) bool { return spec.EndToEnd[i].Name < spec.EndToEnd[j].Name })
	return pairsReport(w, spec, sides[0], sides[1])
}
