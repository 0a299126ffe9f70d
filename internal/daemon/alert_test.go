package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// alertPipe is the slice of a Pipe the alert path touches: a name, a
// sink, and nil (no-op) metric handles. Nothing is started.
func alertPipe(name string, w io.Writer, anomaliesOnly bool) *Pipe {
	return &Pipe{name: name, alertw: w, nameJSON: appendJSONString(nil, name), anomaliesOnly: anomaliesOnly}
}

// oracleLines is the alert path as encoding/json writes it — the Alert
// struct through json.Marshal, one line per row — with the stamp each
// emitted line carries (ts is the one value the encoder owns) and the
// non-finite rule applied. got must hold exactly the lines of res's n
// rows that pass the anomalies-only filter.
func oracleLines(t testing.TB, got []byte, name string, res *core.EvalResult, n, seq, gen int, phase string, anomaliesOnly bool) []byte {
	t.Helper()
	lines := bytes.SplitAfter(got, []byte("\n"))
	var want []byte
	var prev time.Time
	for i := 0; i < n; i++ {
		a := Alert{Pipeline: name, Seq: seq, Phase: phase, Unit: res.Unit.String(), Index: -1, ModelGen: gen}
		if i < len(res.Pred) {
			a.Pred = res.Pred[i]
		}
		if anomaliesOnly && a.Pred != 1 {
			continue
		}
		if i < len(res.UnitIdx) {
			a.Index = res.UnitIdx[i]
		}
		if i < len(res.Truth) {
			a.Truth = res.Truth[i]
		}
		if i < len(res.Attacks) {
			a.Attack = res.Attacks[i]
		}
		if i < len(res.Scores) && !math.IsNaN(res.Scores[i]) && !math.IsInf(res.Scores[i], 0) {
			a.Score = &res.Scores[i]
		}
		if len(lines) == 0 || len(lines[0]) == 0 {
			t.Fatalf("row %d: the sink ran out of lines", i)
		}
		var parsed Alert
		if err := json.Unmarshal(lines[0], &parsed); err != nil {
			t.Fatalf("row %d: %q is not JSON: %v", i, lines[0], err)
		}
		ts, err := time.Parse(time.RFC3339Nano, parsed.TS)
		if err != nil || ts.Before(prev) || ts.Location() != time.UTC {
			t.Fatalf("row %d: ts %q (err %v) must be RFC 3339 UTC and non-decreasing (previous %v)", i, parsed.TS, err, prev)
		}
		prev = ts
		a.TS = parsed.TS
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
		lines = lines[1:]
	}
	return want
}

// nastyNames need every branch of encoding/json's string encoder: the
// HTML-safe set, the short and \u00XX control escapes, invalid UTF-8
// (written as �), and the two separators escaped for JSONP.
var nastyNames = []string{
	"", "ddos", "plain name-0_1.2", `quo"te`, `back\slash`, "<script>&amp;</script>",
	"tab\there\nnl\rcr\bbs\fff", "ctl\x00\x01\x1f\x7f", "bad\xff\xfeutf8\xc3", "sep\u2028and\u2029end", "ünïcödé ✓ 🦀",
}

// edgeScores sit on every switch of encoding/json's float format.
var edgeScores = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1.0 / 3, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), 9.999999e-7, 1e-7, 1.5e-9, 1e-10, -2.5e-12, 1e-100, 1e-300,
	1e21, math.Nextafter(1e21, 0), 1.5e21, 1e22, 1e100, -1e300,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestAlertLineMatchesEncodingJSON pins the alert encoder to its oracle:
// over every present/absent combination of the result's columns, both
// filters, both phases, names and attacks that need escaping and scores
// from the format's edges plus random bit patterns, the bytes the sink
// sees equal json.Marshal(Alert)+"\n" apart from the value of ts.
func TestAlertLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const randomScores = 256
	n := len(edgeScores) + randomScores
	full := core.EvalResult{Pred: make([]int, n), Truth: make([]int, n), Attacks: make([]string, n), Scores: make([]float64, n), UnitIdx: make([]int, n)}
	copy(full.Scores, edgeScores)
	for i := 0; i < n; i++ {
		full.Pred[i] = i % 2
		full.Truth[i] = (i / 2) % 2
		full.Attacks[i] = nastyNames[i%len(nastyNames)]
		full.UnitIdx[i] = i*7919 - 3
	}
	phases := []struct {
		seq   int
		phase string
		unit  core.UnitKind
	}{{3, "stream", core.UnitPacket}, {-1, "flush", core.UnitFlow}, {1 << 40, "stream", core.UnitGroup}}
	for mask := 0; mask < 16; mask++ {
		for i := len(edgeScores); i < n; i++ {
			full.Scores[i] = math.Float64frombits(rng.Uint64())
		}
		res := core.EvalResult{Pred: full.Pred}
		if mask&1 != 0 {
			res.Scores = full.Scores
		}
		if mask&2 != 0 {
			res.UnitIdx = full.UnitIdx
		}
		if mask&4 != 0 {
			res.Truth = full.Truth[:n-5] // a short column: the last rows read its zero
		}
		if mask&8 != 0 {
			res.Attacks = full.Attacks
		}
		for pi, ph := range phases {
			name := nastyNames[(mask*len(phases)+pi)%len(nastyNames)]
			for _, anomaliesOnly := range []bool{false, true} {
				res.Unit = ph.unit
				var sink bytes.Buffer
				p := alertPipe(name, &sink, anomaliesOnly)
				gen := mask + 1
				if err := p.writeRows(&res, ph.seq, gen, ph.phase); err != nil {
					t.Fatal(err)
				}
				if err := p.flushAlerts(); err != nil {
					t.Fatal(err)
				}
				want := oracleLines(t, sink.Bytes(), name, &res, n, ph.seq, gen, ph.phase, anomaliesOnly)
				if !bytes.Equal(sink.Bytes(), want) {
					t.Fatalf("mask %04b name %q phase %s anomaliesOnly %v: encoder and encoding/json differ\n%s", mask, name, ph.phase, anomaliesOnly, firstDiff(sink.Bytes(), want))
				}
			}
		}
	}
}

// TestAlertScoreTableMatchesEncodingJSON sends chunks through one pipe,
// so that rows find their score's text in the pipe's score table from
// the chunks before: repeats, two scores that share a slot taking it in
// turn, both zeros, every edge score and scores whose text is too long
// for a slot, each chunk's lines equal to the oracle's.
func TestAlertScoreTableMatchesEncodingJSON(t *testing.T) {
	const a = 0.25
	b := math.Nextafter(a, 1)
	for scoreSlot(math.Float64bits(b)) != scoreSlot(math.Float64bits(a)) {
		b = math.Nextafter(b, 1)
	}
	long := []float64{-math.MaxFloat64, -2.2250738585072014e-308, -1.2345678901234567e-100}
	for _, s := range long {
		if n := len(appendJSONFloat(nil, s)); n <= len(scoreTable{}[0].text) {
			t.Fatalf("%v formats to %d bytes, which a slot holds: the long scores must not fit", s, n)
		}
	}
	scores := []float64{a, b, a, a, b, b, a, 0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}
	scores = append(append(append(scores, long...), long...), edgeScores...)
	scores = append(scores, edgeScores...)
	n := len(scores)
	res := core.EvalResult{Unit: core.UnitPacket, Pred: make([]int, n), Truth: make([]int, n), Scores: make([]float64, n), UnitIdx: make([]int, n)}
	var sink bytes.Buffer
	p := alertPipe("scores", &sink, false)
	for chunk := 0; chunk < 4; chunk++ {
		for i := range scores {
			res.Scores[i] = scores[(i+chunk*7)%n]
			res.Pred[i] = (i + chunk) % 2
			res.UnitIdx[i] = chunk*n + i
		}
		sink.Reset()
		if err := p.writeRows(&res, chunk, 1, "stream"); err != nil {
			t.Fatal(err)
		}
		if err := p.flushAlerts(); err != nil {
			t.Fatal(err)
		}
		if want := oracleLines(t, sink.Bytes(), "scores", &res, n, chunk, 1, "stream", false); !bytes.Equal(sink.Bytes(), want) {
			t.Fatalf("chunk %d: encoder and encoding/json differ\n%s", chunk, firstDiff(sink.Bytes(), want))
		}
	}
	for _, s := range long {
		if slot := p.scores[scoreSlot(math.Float64bits(s))]; slot.n != 0 && slot.bits == math.Float64bits(s) {
			t.Errorf("%v was stored in a slot too short for its text", s)
		}
	}
}

// firstDiff renders the first line two JSONL streams disagree on.
func firstDiff(got, want []byte) string {
	g, w := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n got: %swant: %s", i, g[i], w[i])
		}
	}
	return "one stream is a prefix of the other"
}

// FuzzAlertLine holds single lines to the same oracle over arbitrary
// names, attacks, score bit patterns and integers. Each row goes through
// its pipe twice, so the second line takes its score's text from the
// pipe's score table.
func FuzzAlertLine(f *testing.F) {
	f.Add("pipe", "ddos", math.Float64bits(0.25), 7, 1, 1, 3, 2, uint8(0b1111))
	f.Add(`a"b\c<d>&`, "x\x00 \xff", math.Float64bits(1e-7), -1, 0, 0, -1, 1, uint8(0b0111))
	f.Add("", "", math.Float64bits(math.NaN()), math.MinInt, 1, math.MaxInt, 0, 0, uint8(0b10001))
	f.Fuzz(func(t *testing.T, name, attack string, scoreBits uint64, index, pred, truth, seq, gen int, cols uint8) {
		res := core.EvalResult{Unit: core.UnitKind(cols >> 5), Pred: []int{pred}}
		if cols&1 != 0 {
			res.Scores = []float64{math.Float64frombits(scoreBits)}
		}
		if cols&2 != 0 {
			res.UnitIdx = []int{index}
		}
		if cols&4 != 0 {
			res.Truth = []int{truth}
		}
		if cols&8 != 0 {
			res.Attacks = []string{attack}
		}
		phase := "stream"
		if cols&16 != 0 {
			phase = "flush"
		}
		var sink bytes.Buffer
		p := alertPipe(name, &sink, false)
		for pass := 0; pass < 2; pass++ {
			sink.Reset()
			if err := p.writeRows(&res, seq, gen, phase); err != nil {
				t.Fatal(err)
			}
			if err := p.flushAlerts(); err != nil {
				t.Fatal(err)
			}
			if want := oracleLines(t, sink.Bytes(), name, &res, 1, seq, gen, phase, false); !bytes.Equal(sink.Bytes(), want) {
				t.Fatalf("pass %d: encoder and encoding/json differ\n got: %swant: %s", pass, sink.Bytes(), want)
			}
		}
	})
}

// TestNonFiniteScoreOmitsKey: a NaN or ±Inf score has no JSON number, and
// used to fail the whole pipeline. The line is written without the score
// key and counted.
func TestNonFiniteScoreOmitsKey(t *testing.T) {
	m := obs.NewMetrics()
	var sink bytes.Buffer
	p := alertPipe("nf", &sink, false)
	p.mNonFinite = m.Counter("lumen_daemon_alert_nonfinite_scores_total", "", "pipeline", "nf")
	res := &core.EvalResult{Pred: []int{1, 1, 0, 1}, Scores: []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1)}}
	if err := p.writeRows(res, 0, 1, "stream"); err != nil {
		t.Fatalf("a non-finite score must not fail the pass: %v", err)
	}
	if err := p.flushAlerts(); err != nil {
		t.Fatal(err)
	}
	got := parseAlerts(t, sink.Bytes())
	if len(got) != 4 || got[0].Score == nil || *got[0].Score != 0.5 {
		t.Fatalf("want 4 lines, the first scored 0.5: %+v", got)
	}
	for i, a := range got[1:] {
		if a.Score != nil || a.Pred != res.Pred[i+1] {
			t.Fatalf("line %d = %+v, want pred %d and no score", i+1, a, res.Pred[i+1])
		}
	}
	if strings.Count(sink.String(), `"score"`) != 1 {
		t.Fatalf("only the finite row may carry a score key:\n%s", sink.String())
	}
	if n := p.mNonFinite.Value(); n != 3 || p.alerts.Load() != 4 {
		t.Fatalf("nonfinite counter = %d, alerts = %d, want 3 and 4", n, p.alerts.Load())
	}
}

// benchResult is a chunk-sized result with every column present.
func benchResult(n int) *core.EvalResult {
	res := &core.EvalResult{Pred: make([]int, n), Truth: make([]int, n), Attacks: make([]string, n), Scores: make([]float64, n), UnitIdx: make([]int, n)}
	for i := 0; i < n; i++ {
		res.Pred[i] = i % 2
		res.Truth[i] = i % 2
		res.Scores[i] = float64(i%97) / 97
		res.UnitIdx[i] = 1_000_000 + i
		if i%2 == 1 {
			res.Attacks[i] = "mirai-udp-flood"
		}
	}
	return res
}

// TestAlertEncodeAllocs: once the pipe's buffers have grown to a chunk's
// worth of lines, encoding and writing a chunk allocates nothing.
func TestAlertEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	res := benchResult(512)
	p := alertPipe("allocs", io.Discard, false)
	chunk := func() {
		if err := p.writeRows(res, 9, 1, "stream"); err != nil {
			t.Fatal(err)
		}
		if err := p.flushAlerts(); err != nil {
			t.Fatal(err)
		}
	}
	chunk()
	if n := testing.AllocsPerRun(50, chunk); n != 0 {
		t.Fatalf("%v allocations per 512-alert chunk at steady state, want 0", n)
	}
}

// lineSink records what one Write must satisfy for the file behind it to
// be safe to tail or rotate at any moment: whole lines only, and no more
// than the flush threshold plus the line that crossed it.
type lineSink struct {
	t        *testing.T
	writes   int
	lines    int
	maxWrite int
	failAt   int // fail this Write (1-based); 0 = never
}

func (s *lineSink) Write(b []byte) (int, error) {
	s.writes++
	if s.failAt > 0 && s.writes >= s.failAt {
		return 0, errors.New("disk full")
	}
	if len(b) == 0 || b[len(b)-1] != '\n' {
		s.t.Errorf("write %d (%d bytes) does not end on a line boundary", s.writes, len(b))
	}
	if len(b) > s.maxWrite {
		s.maxWrite = len(b)
	}
	s.lines += bytes.Count(b, []byte("\n"))
	return len(b), nil
}

// TestAlertWritesAreWholeLines drives both phases far past the flush
// threshold and checks every Write the sink saw, then lets the sink fail
// under a running pipeline.
func TestAlertWritesAreWholeLines(t *testing.T) {
	const rows, maxLine = 3000, 256
	res := benchResult(rows)
	sink := &lineSink{t: t}
	p := alertPipe("lines", sink, false)
	// Stream phase: a chunk's rows, then the chunk-end flush.
	if err := p.writeRows(res, 0, 1, "stream"); err != nil {
		t.Fatal(err)
	}
	if err := p.flushAlerts(); err != nil {
		t.Fatal(err)
	}
	// Flush phase: a deferred tail.
	if err := p.writeRows(res, -1, 1, "flush"); err != nil {
		t.Fatal(err)
	}
	if err := p.flushAlerts(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * rows; sink.lines != want || p.alerts.Load() != int64(want) {
		t.Fatalf("sink saw %d lines, pipe counted %d, want %d", sink.lines, p.alerts.Load(), want)
	}
	if sink.writes < 10 || sink.maxWrite > alertFlushBytes+maxLine || cap(p.alertBuf) > 2*alertFlushBytes {
		t.Fatalf("%d writes, largest %d bytes, buffer cap %d: want many writes of at most %d+one line and a bounded buffer",
			sink.writes, sink.maxWrite, cap(p.alertBuf), alertFlushBytes)
	}

	// A write failing mid-range stops the range there, and the lines that
	// earlier writes of the same range delivered stay counted.
	mid := &lineSink{t: t, failAt: 3}
	mp := alertPipe("mid", mid, false)
	err := mp.writeRows(res, 0, 1, "stream")
	if err == nil || mid.writes != 3 || mid.lines == 0 || mp.alerts.Load() < int64(mid.lines) || mp.alerts.Load() >= rows {
		t.Fatalf("err %v after %d writes: sink holds %d lines, pipe counted %d of %d rows", err, mid.writes, mid.lines, mp.alerts.Load(), rows)
	}

	// A failing sink fails its pipeline, by name, and only that.
	ds := testDS(t)
	d := New(Config{Metrics: obs.NewMetrics()})
	bad := &lineSink{t: t, failAt: 3}
	fp, err := d.Start(PipeConfig{
		Name:   "x",
		Engine: trainedEngine(t, ds),
		Source: NewReplaySource(dataset.NewSliceSource(ds), 0, 0),
		Stream: core.StreamConfig{ChunkRows: 64},
		Alerts: bad,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-fp.Done()
	err = fp.Drain()
	if err == nil || !strings.Contains(err.Error(), `daemon: alert sink "x": disk full`) {
		t.Fatalf("drain error = %v, want the sink's failure under the pipeline's name", err)
	}
	if st := fp.Status(); st.State != "failed" || st.Error != err.Error() || bad.lines == 0 {
		t.Fatalf("status = %+v after %d good lines, want failed with the sink error", st, bad.lines)
	}
}

// BenchmarkAlertEncode is the alert layer's own number: one 512-row
// chunk result with scores and attacks, encoded and written to a sink
// that costs nothing.
func BenchmarkAlertEncode(b *testing.B) {
	const rows = 512
	res := benchResult(rows)
	p := alertPipe("bench-pipeline", io.Discard, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.writeRows(res, i, 1, "stream"); err != nil {
			b.Fatal(err)
		}
		if err := p.flushAlerts(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	alerts := float64(b.N * rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/alerts, "ns/alert")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/alerts, "B/alert")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/alerts, "allocs/alert")
}
