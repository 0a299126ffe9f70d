package daemon

import (
	"bytes"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// driftPipeline is testPipeline with a Page-Hinkley monitor on the
// prediction stream.
func driftPipeline() *core.Pipeline {
	p := testPipeline()
	p.Name = "daemon-pkt-drift"
	p.Ops = append(p.Ops, core.OpSpec{
		Func: "drift_detect", Input: []string{"fit"}, Output: "drift",
		Params: map[string]any{"lambda": 5.0, "min_samples": 10},
	})
	return p
}

// driftedTestDS reorders the fixture trace benign-first-then-attack, so
// the scored stream shifts sharply mid-trace.
func driftedTestDS(t *testing.T) *dataset.Labeled {
	t.Helper()
	ds := testDS(t)
	out := &dataset.Labeled{
		Name:        ds.Name + "-drift",
		Granularity: ds.Granularity,
		Link:        ds.Link,
		Devices:     ds.Devices,
	}
	for _, want := range []int{0, 1} {
		for i, l := range ds.Labels {
			if l != want {
				continue
			}
			out.Packets = append(out.Packets, ds.Packets[i])
			out.Labels = append(out.Labels, l)
			out.Attacks = append(out.Attacks, ds.Attacks[i])
		}
	}
	return out
}

// TestDriftTriggeredRetrain is the closed-loop acceptance test: a
// label-shifted trace makes drift_detect fire, the pipeline retrains a
// fresh model on its feature reservoir in the background, and the
// candidate passes the shadow gate into a promoted generation — all
// while every chunk keeps getting scored (no dropped verdicts).
func TestDriftTriggeredRetrain(t *testing.T) {
	ds := driftedTestDS(t)
	eng := core.NewEngine(driftPipeline())
	eng.Seed = 7
	if err := eng.TrainStream(ds, core.StreamConfig{ChunkRows: 256}); err != nil {
		t.Fatal(err)
	}

	met := obs.NewMetrics()
	d := New(Config{Metrics: met})
	g := newGate(dataset.NewSliceSource(ds))
	var alerts bytes.Buffer
	rows := chunkRowsFor(len(ds.Packets), 40)
	p, err := d.Start(PipeConfig{
		Name:   "retrain",
		Engine: eng,
		Source: g,
		Stream: core.StreamConfig{ChunkRows: rows},
		Alerts: &alerts,
		Retrain: RetrainConfig{
			Enabled:        true,
			ReservoirCap:   2048,
			MinRows:        64,
			CooldownChunks: 2,
			Seed:           3,
			Swap:           SwapOptions{AutoDecide: true, ShadowChunks: 2, MaxDisagree: 1.0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Release chunks one at a time until the retrained generation is
	// active, so the background fit and its shadow phase always have a
	// next chunk boundary to land on.
	total := len(ds.Packets)/rows + 2
	for i := 0; i < total; i++ {
		g.allow(1)
		seq := int64(i + 1)
		waitFor(t, 5*time.Second, "chunk absorption", func() bool {
			return p.Status().Chunks >= seq
		})
		if p.Status().ModelGeneration >= 2 {
			break
		}
	}
	waitFor(t, 5*time.Second, "promoted retrain generation", func() bool {
		return p.Status().ModelGeneration >= 2
	})
	g.allow(total) // let the rest of the trace through
	<-p.Done()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	st := p.Status()
	if st.ModelGeneration < 2 {
		t.Fatalf("model generation = %d, want >= 2 after drift retrain", st.ModelGeneration)
	}
	if st.LastSwap == nil || st.LastSwap.Outcome != "promoted" || st.LastSwap.By != "auto" {
		t.Fatalf("last swap = %+v, want auto promotion", st.LastSwap)
	}
	if n := met.Counter("lumen_drift_events_total",
		"Drift-detector events observed, per pipeline.",
		"pipeline", "retrain").Value(); n == 0 {
		t.Fatal("lumen_drift_events_total did not count")
	}
	if n := met.Counter("lumen_retrain_total",
		"Drift-triggered background retrains, by outcome.",
		"pipeline", "retrain", "outcome", "ok").Value(); n == 0 {
		t.Fatal("lumen_retrain_total{outcome=ok} did not count")
	}
	// Every retrain times its fit once. A retrain still in flight has
	// timed its fit before it counts its outcome, so wait it out.
	waitFor(t, 5*time.Second, "in-flight retrain", func() bool { return !p.retrainBusy.Load() })
	retrains := uint64(0)
	for _, outcome := range []string{"ok", "error"} {
		retrains += met.Counter("lumen_retrain_total",
			"Drift-triggered background retrains, by outcome.",
			"pipeline", "retrain", "outcome", outcome).Value()
	}
	if n := met.Histogram("lumen_retrain_fit_seconds", "", nil, "pipeline", "retrain").Count(); n != retrains {
		t.Fatalf("lumen_retrain_fit_seconds observed %d fits, want one per retrain (%d)", n, retrains)
	}
	if st.Verdicts != int64(len(ds.Packets)) {
		t.Fatalf("verdicts = %d, want %d (dropped chunks)", st.Verdicts, len(ds.Packets))
	}
	got := parseAlerts(t, alerts.Bytes())
	if len(got) != len(ds.Packets) {
		t.Fatalf("alert lines = %d, want %d", len(got), len(ds.Packets))
	}
	// The generation stamp must flip mid-stream: early alerts carry gen 1,
	// late ones the promoted generation.
	if got[0].ModelGen != 1 {
		t.Fatalf("first alert generation = %d, want 1", got[0].ModelGen)
	}
	if last := got[len(got)-1].ModelGen; last < 2 {
		t.Fatalf("final alert generation = %d, want >= 2", last)
	}
}

// TestFlowDriftFeedsRetrain: a connection-level pipeline scores its
// flows as they close, so its drift events and train rows come in flush
// updates; the daemon counts those events and fills its retrain
// reservoir from them.
func TestFlowDriftFeedsRetrain(t *testing.T) {
	ds := driftedTestDS(t)
	pl := zeekPipeline(t, 0)
	pl.Ops = append(pl.Ops, core.OpSpec{
		Func: "drift_detect", Input: []string{"fit"}, Output: "drift",
		Params: map[string]any{"lambda": 5.0, "min_samples": 10, "two_sided": true},
	})
	eng := trained(t, pl, ds)
	met := obs.NewMetrics()
	p, err := New(Config{Metrics: met}).Start(PipeConfig{
		Name:    "zeek-drift",
		Engine:  eng,
		Source:  dataset.NewSliceSource(ds),
		Stream:  core.StreamConfig{ChunkRows: chunkRowsFor(len(ds.Packets), 12)},
		Retrain: RetrainConfig{Enabled: true, MinRows: 1 << 20, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-p.Done()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := met.Counter("lumen_drift_events_total",
		"Drift-detector events observed, per pipeline.",
		"pipeline", "zeek-drift").Value(); n == 0 || n != uint64(eng.LastStream.DriftEvents) {
		t.Errorf("lumen_drift_events_total = %d, the pass raised %d; want the same, above 0", n, eng.LastStream.DriftEvents)
	}
	if v := p.Status().Verdicts; p.res.Len() == 0 || int64(p.res.Len()) != v {
		t.Errorf("retrain reservoir holds %d rows after %d scored flows", p.res.Len(), v)
	}
}
