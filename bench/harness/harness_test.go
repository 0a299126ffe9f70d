package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"net"
	"os"
	"reflect"
	"testing"

	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
)

// tiny shrinks a workload to a couple of thousand packets, so every
// workload's full path runs in a test.
func tiny(w Workload) Workload {
	w.GenScale, w.BasePackets, w.Replicas = 1, 1500, 2
	if w.RotatedFiles > 0 {
		w.RotatedFiles = 3
	}
	return w
}

// caps lists which of the optional interfaces that steer a pass's plan a
// source implements.
func caps(s dataset.Source) string {
	_, view := s.(dataset.ViewSource)
	_, rec := s.(dataset.Recycler)
	_, drain := s.(daemon.Drainer)
	_, mode := s.(interface{ DecodeMode() string })
	_, errs := s.(interface{ Err() error })
	_, labeled := s.(interface{ Labeled() *dataset.Labeled })
	return fmt.Sprintf("view=%v recycle=%v drain=%v mode=%v err=%v labeled=%v", view, rec, drain, mode, errs, labeled)
}

func TestTracedSourceKeepsCapabilities(t *testing.T) {
	w := tiny(Workloads()[0])
	ds, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := writeCapture(w, ds, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(c.File)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	file, err := dataset.NewPcapSource("t", f, c.Gran)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	feed := daemon.NewFeedSource("t", ln, c.Link, 0)
	defer feed.Drain()
	watch := daemon.NewDirSource("t", t.TempDir(), "*.pcap", c.Gran, c.Link, watchPoll)

	rec := NewRecorder(1)
	for _, inner := range []dataset.Source{file, watch, feed} {
		wrapped, _, err := traceSource(inner, rec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := caps(wrapped), caps(inner); got != want {
			t.Errorf("%T wrapped: %s\n%T bare:    %s", inner, got, inner, want)
		}
	}
	if _, _, err := traceSource(dataset.NewSliceSource(ds), rec, 0); err == nil {
		t.Error("traceSource accepted a source it has no wrapper for")
	}
}

// plainClf has no Proba.
type plainClf struct{}

func (plainClf) Fit([][]float64, []int) error { return nil }
func (plainClf) Predict(X [][]float64) []int  { return make([]int, len(X)) }
func (probClf) Proba(X [][]float64) []float64 { return make([]float64, len(X)) }

type probClf struct{ plainClf }

func TestTracedClassifierOffersProbaOnlyWhenModelDoes(t *testing.T) {
	rec := NewRecorder(1)
	rec.BeginPass(rec.epoch, true)
	if _, ok := traceClassifier(plainClf{}, rec).(mlkit.ProbClassifier); ok {
		t.Error("wrapper adds Proba to a model without it: the scoring op would score twice")
	}
	c, ok := traceClassifier(probClf{}, rec).(mlkit.ProbClassifier)
	if !ok {
		t.Fatal("wrapper hides the model's Proba")
	}
	X := [][]float64{{1}, {2}}
	c.Predict(X)
	c.Proba(X)
	var names []string
	for _, s := range rec.Spans()[1:] {
		names = append(names, s.Name)
		if s.Rows != 2 {
			t.Errorf("%s span carries %d rows, want 2", s.Name, s.Rows)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{SpanPredict, SpanProba}) {
		t.Errorf("spans %v, want one predict and one proba", names)
	}
}

// verdictDigest is an alert sink that hashes each line's verdict
// (index, pred, unit, phase), ignoring the wall-clock fields.
type verdictDigest struct {
	lineSplitter
	h     hash.Hash
	lines int
	err   error
}

func (v *verdictDigest) Write(p []byte) (int, error) {
	v.split(p, func(line []byte) {
		var a struct {
			Index, Pred, Seq int
			Unit, Phase      string
		}
		if err := json.Unmarshal(line, &a); err != nil && v.err == nil {
			v.err = err
		}
		fmt.Fprintf(v.h, "%d %d %d %s %s\n", a.Seq, a.Index, a.Pred, a.Unit, a.Phase)
		v.lines++
	})
	return len(p), nil
}

// TestTracingKeepsPlanAndVerdicts is the wrapper-fidelity test: on every
// workload, a pass through the traced source, classifier and writer
// wrappers reports the verdict sequence, decode mode and stream plan of
// the bare pass, so tracing cannot change what it measures. Setup itself
// already verified a bare pass row by row against the reference.
func TestTracingKeepsPlanAndVerdicts(t *testing.T) {
	for _, w := range Workloads() {
		w := tiny(w)
		t.Run(w.Name, func(t *testing.T) {
			env, err := Setup(w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			if env.Ref.Verdicts == 0 || env.Ref.Alerts == 0 {
				t.Fatalf("reference has %d verdicts, %d alerts: nothing to compare", env.Ref.Verdicts, env.Ref.Alerts)
			}
			bareV := &verdictDigest{h: sha256.New()}
			bare, err := env.RunPass(PassOpts{AlertTee: bareV})
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(16)
			tracedV := &verdictDigest{h: sha256.New()}
			traced, err := env.RunPass(PassOpts{Rec: rec, AlertTee: tracedV})
			if err != nil {
				t.Fatal(err)
			}
			if err := samePlan(bare, traced); err != nil {
				t.Error(err)
			}
			if bareV.err != nil || tracedV.err != nil {
				t.Fatalf("unparsable alert line: %v / %v", bareV.err, tracedV.err)
			}
			// Chunk boundaries (hence seq) are only reproducible where the
			// source cuts them by row count, not by arrival.
			if w.Ingest != IngestFeed && !bytes.Equal(bareV.h.Sum(nil), tracedV.h.Sum(nil)) {
				t.Errorf("verdict sequences differ between the bare and the traced pass (%d vs %d lines)", bareV.lines, tracedV.lines)
			}
			if bareV.lines != tracedV.lines || int64(bareV.lines) != env.Ref.Alerts {
				t.Errorf("alert lines: bare %d, traced %d, reference %d", bareV.lines, tracedV.lines, env.Ref.Alerts)
			}
			if w.Lazy() && (traced.Views == nil || !traced.Views.lazy || traced.Views.hint != env.Hint) {
				t.Errorf("traced pass configured views %+v, reference plan asked for %+v", traced.Views, env.Hint)
			}
			t.Logf("harness.trace_overhead_pct %.1f (one pair of %d-packet passes)",
				(float64(traced.Wall)/float64(bare.Wall)-1)*100, bare.Packets)

			// The spans the traced pass must have produced.
			count := map[string]int{}
			for _, s := range rec.Spans() {
				count[s.Name]++
			}
			for _, name := range []string{SpanPass, SpanNext, SpanChunk, SpanPredict, SpanAlertW} {
				if count[name] == 0 {
					t.Errorf("traced pass recorded no %s span (have %v)", name, count)
				}
			}
			if w.ConnLog && count[SpanConnLogW] == 0 {
				t.Errorf("traced pass recorded no %s span", SpanConnLogW)
			}
			if w.Lazy() && count[SpanRecycle] != count[SpanChunk] {
				t.Errorf("%d recycle spans for %d chunks", count[SpanRecycle], count[SpanChunk])
			}
		})
	}
}

// TestSeedDeterminesInputs: the same seed gives byte-identical capture
// files and the same verdict and allocation counts; another seed gives
// another capture.
func TestSeedDeterminesInputs(t *testing.T) {
	w, _ := Get("pkt_light_watch_staged")
	w = tiny(w)
	type outcome struct {
		digest, rotated string
		ref             Reference
		allocs          float64
		hint            netpkt.DecodeHint
	}
	run := func(seed int64) outcome {
		env, err := Setup(w, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		h := sha256.New()
		for i := 0; i < env.Cap.Files; i++ {
			data, err := os.ReadFile(fmt.Sprintf("%s/trace-%06d.pcap", env.Cap.Rotated, i))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		p, err := env.RunPass(PassOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{env.Cap.Digest, fmt.Sprintf("%x", h.Sum(nil)), env.Ref, float64(p.Mallocs) / float64(p.Packets), env.Hint}
	}
	a, b, c := run(11), run(11), run(12)
	if a.digest != b.digest || a.rotated != b.rotated {
		t.Errorf("seed 11 wrote different captures: %s/%s vs %s/%s", a.digest, a.rotated, b.digest, b.rotated)
	}
	if a.ref != b.ref {
		t.Errorf("seed 11 gave different references: %+v vs %+v", a.ref, b.ref)
	}
	// Heap objects are counted exactly, but a collection that starts a
	// few chunks earlier or later empties the engine's pools at another
	// point, so two runs agree to a fraction of a percent, not to the unit.
	if d := math.Abs(a.allocs-b.allocs) / a.allocs; d > 0.02 {
		t.Errorf("allocs_per_packet %.3f vs %.3f for the same seed", a.allocs, b.allocs)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 11 and 12 wrote the same capture %s", a.digest)
	}
}

func TestAlertCheckerCatchesMismatch(t *testing.T) {
	w := tiny(Workloads()[1]) // anomalies only: the checker must skip benign rows
	env, err := Setup(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ref, err := env.reference()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one anomalous verdict: the pass must now fail verification.
	for i, p := range ref.Pred {
		if p == 1 {
			ref.Pred[i] = 0
			break
		}
	}
	ac := &alertChecker{ref: ref, anomaliesOnly: true}
	if _, err := env.RunPass(PassOpts{AlertTee: ac}); err != nil {
		t.Fatal(err)
	}
	if err := ac.finish(); err == nil {
		t.Error("alert checker accepted a pass that disagrees with the reference")
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which the driver
// reads, equal to what the harness declares (lumenperf -spec writes it).
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	generated, err := json.Marshal(Spec())
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(generated, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from harness.Spec(); regenerate it with: lumenperf -spec > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]MetricSpec{}, EndToEnd...), PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}
