// Daemon hot swap: replace a detection model under live ingest without
// dropping or double-scoring a single chunk. A resident pipeline
// (internal/daemon) replays a capture while an offline retrain produces
// a candidate model; the daemon shadow-scores the candidate next to the
// active model, publishes the divergence as lumen_swap_divergence
// metrics, and promotes it only when the two agree closely enough.
//
//	go run ./examples/daemon-hot-swap
//
// The same flow is available from the command line: lumend.json beside
// this file boots the pipeline on a replayed capture, and a `"swap":
// {"model": "candidate.json"}` object in its entry (or POST
// /pipelines/hot-swap-demo/swap) starts the swap — see OPERATIONS.md for
// the lumend walkthrough:
//
//	lumend -config examples/daemon-hot-swap/lumend.json
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
)

func main() {
	pl, err := core.LoadPipeline(pipelinePath())
	if err != nil {
		log.Fatal(err)
	}
	spec, ok := dataset.Get("F1")
	if !ok {
		log.Fatal("dataset F1 not registered")
	}
	live := spec.Generate(0.3) // the "production" traffic the daemon scores

	// The active model: trained on a small early capture, the way a
	// deployment usually starts.
	active := core.NewEngine(pl)
	active.Seed = 7
	if err := active.Train(spec.Generate(0.1)); err != nil {
		log.Fatal(err)
	}

	// The candidate: an offline retrain on more data, persisted the way
	// `lumen -save-model` would. In production this file arrives from a
	// training job; here we produce it inline.
	retrained := core.NewEngine(pl)
	retrained.Seed = 7
	if err := retrained.Train(spec.Generate(0.2)); err != nil {
		log.Fatal(err)
	}
	clf, _ := retrained.TrainedModel()
	dir, err := os.MkdirTemp("", "hot-swap-demo")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	candidate := filepath.Join(dir, "candidate.json")
	if err := mlkit.SaveModel(candidate, clf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("candidate model persisted to", candidate)

	// Boot the daemon: one pipeline replaying the live trace in small
	// chunks, alerts to a JSONL file, conn-log written at drain. The
	// replay is paced so the whole capture takes about two seconds of
	// wall clock — long enough for a swap to land mid-stream, the way it
	// would on a real wire.
	span := live.Packets[len(live.Packets)-1].Ts.Sub(live.Packets[0].Ts)
	speed := span.Seconds() / 2.0
	d := daemon.New(daemon.Config{Metrics: obs.NewMetrics(), Tracer: obs.NewTracer()})
	alerts, err := os.Create(filepath.Join(dir, "alerts.jsonl"))
	if err != nil {
		log.Fatal(err)
	}
	defer alerts.Close()
	connlog, err := os.Create(filepath.Join(dir, "conn.log"))
	if err != nil {
		log.Fatal(err)
	}
	defer connlog.Close()
	p, err := d.Start(daemon.PipeConfig{
		Name:    "edge",
		Engine:  active,
		Source:  daemon.NewReplaySource(dataset.NewSliceSource(live), speed, 0),
		Stream:  core.StreamConfig{ChunkRows: 16},
		Alerts:  alerts,
		ConnLog: connlog,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline %q scoring %d packets (model generation %d)\n",
		p.Name(), len(live.Packets), p.Status().ModelGeneration)

	// Let a few chunks flow, then start the swap: the candidate shadows
	// the active model for 4 chunks and is promoted automatically if
	// their verdicts disagree on at most 20% of rows.
	for p.Status().Chunks < 5 {
		time.Sleep(time.Millisecond)
	}
	err = p.SwapFromFile(candidate, daemon.SwapOptions{
		ShadowChunks: 4,
		AutoDecide:   true,
		MaxDisagree:  0.20,
	})
	if err != nil {
		log.Fatal("swap: ", err)
	}
	fmt.Println("candidate attached, shadow-scoring under live ingest...")

	// Wait for the automatic decision, then drain gracefully.
	for {
		if st := p.Status(); st.LastSwap != nil {
			fmt.Printf("swap %s by %s: shadowed %d chunks / %d rows, disagree=%.4f, score_mad=%.4f\n",
				st.LastSwap.Outcome, st.LastSwap.By, st.LastSwap.Chunks,
				st.LastSwap.Rows, st.LastSwap.DisagreeFrac, st.LastSwap.ScoreMAD)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Drain(); err != nil {
		log.Fatal(err)
	}
	st := p.Status()
	fmt.Printf("drained: %d packets, %d verdicts, %d alert lines, model generation %d\n",
		st.Packets, st.Verdicts, st.Alerts, st.ModelGeneration)

	// The divergence numbers the operator would scrape from /metrics.
	fmt.Println("\nswap metrics:")
	var prom strings.Builder
	d.Metrics().WritePrometheus(&prom)
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "lumen_swap_divergence") ||
			strings.HasPrefix(line, "lumen_daemon_swaps_total") ||
			strings.HasPrefix(line, "lumen_daemon_model_generation") {
			fmt.Println("  " + line)
		}
	}
}

// pipelinePath resolves the template whether the example runs from the
// repo root (go run ./examples/daemon-hot-swap) or from this directory.
func pipelinePath() string {
	for _, p := range []string{
		"examples/daemon-hot-swap/pipeline.json",
		"pipeline.json",
	} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "examples/daemon-hot-swap/pipeline.json"
}
