package daemon

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

// writeRotated splits ds into three rotated capture files under dir.
func writeRotated(t *testing.T, dir string, ds *dataset.Labeled) {
	t.Helper()
	n := len(ds.Packets)
	writePcap(t, filepath.Join(dir, "trace-000.pcap"), ds.Link, ds.Packets[:n/3])
	writePcap(t, filepath.Join(dir, "trace-001.pcap"), ds.Link, ds.Packets[n/3:2*n/3])
	writePcap(t, filepath.Join(dir, "trace-002.pcap"), ds.Link, ds.Packets[2*n/3:])
}

// readBack eagerly decodes every rotated capture under dir, in ingest
// order — the materialized reference the watch's views are held to.
func readBack(t *testing.T, dir string) []*netpkt.Packet {
	t.Helper()
	var pkts []*netpkt.Packet
	for _, name := range []string{"trace-000.pcap", "trace-001.pcap", "trace-002.pcap"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		r, err := pcap.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		part, err := r.ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, part...)
	}
	return pkts
}

// TestWatchIngestEquivalence is the daemon acceptance bar for watch
// ingest: rotated captures streamed over mmap-backed views through the
// staged pipeline produce the verdicts of a batch run over the same
// trace and a conn-log bit-identical to the batch driver over the
// eagerly decoded read-back, the pipeline reports decode mode
// "mmap+lazy" in its status, and draining the daemon returns the
// live-mapping gauge to its baseline.
func TestWatchIngestEquivalence(t *testing.T) {
	ds := testDS(t)
	total := int64(len(ds.Packets))
	n0 := pcap.OpenMappings()
	dir := t.TempDir()
	writeRotated(t, dir, ds)

	want, err := trainedEngine(t, ds).Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	var wantLog bytes.Buffer
	if err := flow.WriteConnLog(&wantLog, flow.Connections(readBack(t, dir), flow.Options{})); err != nil {
		t.Fatal(err)
	}

	d := New(Config{Metrics: obs.NewMetrics()})
	var alerts, connlog bytes.Buffer
	p, err := d.Start(PipeConfig{
		Name:    "watch",
		Engine:  trainedEngine(t, ds),
		Source:  NewDirSource("watch", dir, "*.pcap", dataset.Packet, ds.Link, 5*time.Millisecond),
		Stream:  core.StreamConfig{ChunkRows: 64, PipelineDepth: 2},
		Alerts:  &alerts,
		ConnLog: &connlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the watch to ingest the captures", func() bool {
		return p.Status().Packets >= total
	})
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Status()
	if st.DecodeMode != "mmap+lazy" {
		t.Fatalf("decode mode = %q, want mmap+lazy", st.DecodeMode)
	}
	if got := pcap.OpenMappings(); got != n0 {
		t.Fatalf("live mappings after drain = %d, want baseline %d", got, n0)
	}
	if !bytes.Equal(connlog.Bytes(), wantLog.Bytes()) {
		t.Fatalf("conn-log differs from the batch driver over the read-back: %d vs %d bytes", connlog.Len(), wantLog.Len())
	}
	got := parseAlerts(t, alerts.Bytes())
	if len(got) != len(want.Pred) {
		t.Fatalf("alert lines = %d, want %d", len(got), len(want.Pred))
	}
	for i, a := range got {
		if a.Pred != want.Pred[i] || a.Index != want.UnitIdx[i] || a.Unit != "packet" {
			t.Fatalf("alert %d = %+v, batch pred %d index %d", i, a, want.Pred[i], want.UnitIdx[i])
		}
	}
	if st.Verdicts != int64(len(got)) || st.Packets != total {
		t.Fatalf("status counters %+v disagree with %d alerts / %d packets", st, len(got), total)
	}
}

// TestTruncatedCaptureFailsAlone: a capture truncated under a live
// watch's mapping (a copytruncate) fails that pipeline alone. The watch
// stalls in its alert writer after its first chunk, with chunks cut
// behind it, and the test truncates the capture. Reading past the cut
// faults; the pipeline ends failed with the fault in its error instead
// of the process dying of SIGBUS. The neighbour keeps scoring and drains
// cleanly, and once both have ended the mapping gauge is back at its
// baseline: the failed watch let go of its file.
func TestTruncatedCaptureFailsAlone(t *testing.T) {
	ds := testDS(t)
	const rows, depth = 16, 2
	if n := len(ds.Packets); n <= (2*depth+3)*rows {
		t.Fatalf("%d packets fit in the chunks a pass holds", n)
	}
	mappings := pcap.OpenMappings()
	dir := t.TempDir()
	capture := filepath.Join(dir, "trace-000.pcap")
	writePcap(t, capture, ds.Link, ds.Packets)
	d := New(Config{Metrics: obs.NewMetrics()})
	alerts := &stallWriter{release: make(chan struct{}), stalled: make(chan struct{})}
	watch, err := d.Start(PipeConfig{
		Name:   "truncated",
		Engine: trainedEngine(t, ds),
		Source: NewDirSource("truncated", dir, "*.pcap", dataset.Packet, ds.Link, 5*time.Millisecond),
		Stream: core.StreamConfig{ChunkRows: rows, PipelineDepth: depth},
		Alerts: alerts,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := newGate(dataset.NewSliceSource(ds))
	neighbour, err := d.Start(PipeConfig{
		Name:   "neighbour",
		Engine: trainedEngine(t, ds),
		Source: gate,
		Stream: core.StreamConfig{ChunkRows: rows, PipelineDepth: depth},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-alerts.stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("the watch never wrote its first alerts")
	}
	if st := watch.Status(); st.DecodeMode != "mmap+lazy" {
		close(alerts.release)
		t.Skipf("decode mode %q: captures are not mapped on this platform", st.DecodeMode)
	}
	if err := os.Truncate(capture, 0); err != nil {
		t.Fatal(err)
	}
	close(alerts.release)
	select {
	case <-watch.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the truncated watch never stopped")
	}
	st := watch.Status()
	if st.State != "failed" || !strings.Contains(st.Error, "runtime error: invalid memory address") {
		t.Fatalf("truncated watch ended %s with error %q, want failed with the fault", st.State, st.Error)
	}

	gate.allow(3)
	waitFor(t, 5*time.Second, "the neighbour to keep scoring", func() bool {
		return neighbour.Status().Chunks >= 3
	})
	if err := neighbour.Drain(); err != nil {
		t.Fatalf("neighbour drain: %v", err)
	}
	if st := neighbour.Status(); st.State != "stopped" {
		t.Fatalf("neighbour ended %s (%s), want stopped", st.State, st.Error)
	}
	gauge := d.Metrics().Gauge("lumen_mmap_open_mappings", "").Value()
	if got := pcap.OpenMappings(); got != mappings || gauge != float64(mappings) {
		t.Fatalf("live mappings = %d (gauge %v) after both pipelines ended, want the baseline %d", got, gauge, mappings)
	}
}
