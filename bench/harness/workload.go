// Package harness is Lumen's end-to-end benchmark: it drives the real
// production path in process — capture file, rotated directory or framed
// feed → dataset.Source → core.Engine.RunStream under daemon.Daemon.Start
// → JSONL alert writer (+ conn-log) — and measures it from outside.
// Untraced passes give the end-to-end metrics; a separate traced run
// times calls into each layer's public functions through wrappers and
// isolated loops that live here. See bench/README.md for the metric and
// workload tables.
package harness

import (
	"fmt"

	"lumen/internal/algorithms"
	"lumen/internal/core"
)

// ChunkRows is the chunk bound of every workload.
const ChunkRows = 512

// Ingest is how a workload's packets reach the pipeline.
type Ingest int

// The three ingest paths of the daemon.
const (
	// IngestFile streams one memory-mapped capture (dataset.NewPcapSource).
	IngestFile Ingest = iota
	// IngestWatch streams rotated captures from a watched directory
	// (daemon.NewDirSource).
	IngestWatch
	// IngestFeed streams length-prefixed frames pushed over one TCP
	// connection (daemon.NewFeedSource).
	IngestFeed
)

// Workload is one benchmark scenario: which traffic, which pipeline, how
// it is ingested and what the daemon emits.
type Workload struct {
	Name string
	// Why records what the workload stresses (BENCHMARK.json carries it).
	Why string
	// Dataset is the registry ID of the base trace, generated at GenScale
	// (jittered by the seed), cut to BasePackets packets and written
	// Replicas times with shifted timestamps. Cutting to a fixed count
	// keeps every seed's run the same amount of work.
	Dataset     string
	GenScale    float64
	BasePackets int
	Replicas    int
	// Algorithm is the algorithms registry ID; empty selects the light
	// header-fields pipeline.
	Algorithm string
	Ingest    Ingest
	// RotatedFiles is how many files a watch workload's capture is split into.
	RotatedFiles  int
	Stream        core.StreamConfig
	AnomaliesOnly bool
	ConnLog       bool
}

// Lazy reports whether the workload must run on the zero-copy decode
// fast path (DecodeMode "mmap+lazy"); only the feed decodes eagerly.
func (w Workload) Lazy() bool { return w.Ingest != IngestFeed }

// Sequential reports whether the workload runs the sequential stream
// loop, where the per-layer rows must sum to the pass wall time.
func (w Workload) Sequential() bool { return w.Stream.PipelineDepth == 0 && w.Stream.Workers <= 1 }

// Overlapped reports whether a pass spends its wall time on more than
// one goroutine at once — the staged loop's source stage, or the feed's
// reader and producer — so that per-layer wall times do not add up.
func (w Workload) Overlapped() bool { return !w.Sequential() || w.Ingest == IngestFeed }

// Packets is the capture's packet count.
func (w Workload) Packets() int { return w.BasePackets * w.Replicas }

// lightFields are the nine header fields of the light pipeline: no
// application layer, so the plan's decode hint is headers only.
var lightFields = []string{"len", "payload_len", "ttl", "proto", "src_port", "dst_port", "tcp_flags", "tcp_window", "iat"}

// Pipeline builds the workload's pipeline.
func (w Workload) Pipeline() (*core.Pipeline, error) {
	if w.Algorithm == "" {
		return &core.Pipeline{
			Name:        "bench-light",
			Granularity: "packet",
			Ops: []core.OpSpec{
				{Func: "field_extract", Input: []string{core.InputName}, Output: "pkts", Params: map[string]any{"fields": lightFields}},
				{Func: "model", Output: "clf", Params: map[string]any{"model_type": "decision_tree"}},
				{Func: "train", Input: []string{"clf", "pkts"}, Output: "fit"},
			},
		}, nil
	}
	a, ok := algorithms.Get(w.Algorithm)
	if !ok {
		return nil, fmt.Errorf("bench: unknown algorithm %q", w.Algorithm)
	}
	return a.Pipeline, nil
}

// Workloads returns the six scenarios. Sizes give passes of about half a
// second on two shared cores, so three set-ups and the timed passes of
// one run fit the driver's time cap.
func Workloads() []Workload {
	seq := core.StreamConfig{ChunkRows: ChunkRows}
	return []Workload{
		{
			Name: "pkt_rf_file", Why: "representative packet pipeline (27 fields incl. DNS/HTTP/MQTT, RF-50): scoring and alert encode dominate, decode is diluted",
			Dataset: "P0", GenScale: 10, BasePackets: 20000, Replicas: 5,
			Algorithm: "A05", Ingest: IngestFile, Stream: seq,
		},
		{
			Name: "pkt_light_file", Why: "bare forwarding (9 header fields, decision tree, anomalies only): per-packet pcap/netpkt/dataset/core overhead is the wall time",
			Dataset: "P0", GenScale: 10, BasePackets: 20000, Replicas: 20,
			Ingest: IngestFile, Stream: seq, AnomaliesOnly: true,
		},
		{
			Name: "pkt_light_watch_staged", Why: "same packets through watch ingest, the staged loop and every verdict encoded: catches gains that only help the sequential or anomalies-only path",
			Dataset: "P0", GenScale: 10, BasePackets: 20000, Replicas: 20,
			Ingest: IngestWatch, RotatedFiles: 8,
			Stream: core.StreamConfig{ChunkRows: ChunkRows, PipelineDepth: 4, Workers: 1},
		},
		{
			Name: "pkt_kitsune_file", Why: "the ordered carry-state packet op (damped per-key stats) plus autoencoder scoring; field-extract and forest changes must not move it",
			Dataset: "P1", GenScale: 10, BasePackets: 24000, Replicas: 2,
			Algorithm: "A06", Ingest: IngestFile, Stream: seq, AnomaliesOnly: true,
		},
		{
			Name: "flow_conn_file", Why: "flow pipeline (connection assembly, Zeek features, RF-50, conn-log): state and drain-time work dominate, no verdict before drain",
			Dataset: "F1", GenScale: 10, BasePackets: 24000, Replicas: 5,
			Algorithm: "A14", Ingest: IngestFile, Stream: seq, ConnLog: true,
		},
		{
			Name: "feed_closed", Why: "the eager framed-feed ingest (fresh buffer + full decode per frame) over one TCP connection, closed loop; file-path decode changes must not move it",
			Dataset: "P0", GenScale: 10, BasePackets: 20000, Replicas: 10,
			Ingest: IngestFeed, Stream: seq,
		},
	}
}

// Get looks a workload up by name.
func Get(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
