package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lumen/internal/algorithms"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// connShapes are the depths the conn-log contract covers.
var connShapes = []core.StreamConfig{
	{},
	{PipelineDepth: 2},
	{PipelineDepth: 4},
}

// zeekPipeline is A14 (Zeek conn.log features + RF-50): a pipeline whose
// plan assembles connections itself. idle > 0 sets flow_assemble's
// idle_timeout, in seconds.
func zeekPipeline(t *testing.T, idle float64) *core.Pipeline {
	t.Helper()
	a, ok := algorithms.Get("A14")
	if !ok {
		t.Fatal("algorithm A14 not registered")
	}
	if idle > 0 {
		a.Pipeline.Ops[0].Params["idle_timeout"] = idle
	}
	return a.Pipeline
}

// trained fits p on ds with the fixture seed.
func trained(t *testing.T, p *core.Pipeline, ds *dataset.Labeled) *core.Engine {
	t.Helper()
	eng := core.NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	return eng
}

// prefix is the first n packets of ds as a dataset of its own.
func prefix(ds *dataset.Labeled, n int) *dataset.Labeled {
	pre := *ds
	pre.Packets, pre.Labels, pre.Attacks = ds.Packets[:n], ds.Labels[:n], ds.Attacks[:n]
	return &pre
}

// batchConnLog renders the batch driver's log of pkts under opts.
func batchConnLog(t *testing.T, ds *dataset.Labeled, opts flow.Options) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := flow.WriteConnLog(&b, flow.Connections(decodedPackets(ds.Link, ds.Packets), opts)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// decodedPackets parses records of the given link type from their wire
// bytes.
func decodedPackets(link netpkt.LinkType, recs []*dataset.Record) []*netpkt.Packet {
	out := make([]*netpkt.Packet, len(recs))
	for i, p := range recs {
		out[i] = netpkt.Decode(p.Data, link, p.Ts)
	}
	return out
}

// TestConnLogFromFlowSink: a pipeline whose plan assembles connections
// logs them from that sink. At
// every shape, run to completion and drained mid-stream, under the
// default idle timeout and one short enough to split connections (which
// the log must follow: it describes the connections the detector
// scored), the log is byte-equal to the batch driver's over the ingested
// prefix, the flush-phase alerts are the batch verdicts over it, and
// lumen_flow_evicted_total counts each mid-stream eviction once.
func TestConnLogFromFlowSink(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 12)
	for _, idle := range []float64{0, 0.05} {
		opts := flow.Options{IdleTimeout: time.Duration(idle * float64(time.Second))}
		if idle > 0 && bytes.Equal(batchConnLog(t, ds, opts), batchConnLog(t, ds, flow.Options{})) {
			t.Fatalf("fixture: a %v s idle timeout splits no connection of this trace", idle)
		}
		for si, shape := range connShapes {
			for _, drained := range []bool{true, false} {
				label := fmt.Sprintf("idle %v, shape %d, drained mid-stream %v", idle, si, drained)
				met := obs.NewMetrics()
				eng := trained(t, zeekPipeline(t, idle), ds)
				eng.Metrics = met
				gate := newGate(dataset.NewSliceSource(ds))
				var alerts, connlog bytes.Buffer
				shape.ChunkRows = rows
				p, err := New(Config{Metrics: met}).Start(PipeConfig{
					Name: "zeek", Engine: eng, Source: gate, Stream: shape,
					Alerts: &alerts, ConnLog: &connlog,
				})
				if err != nil {
					t.Fatal(err)
				}
				if drained {
					gate.allow(3)
					waitFor(t, 5*time.Second, "3 chunks", func() bool { return p.Status().Chunks >= 3 })
				} else {
					gate.allow(4096)
					<-p.Done()
				}
				if err := p.Drain(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				st := p.Status()
				n := int(st.Packets)
				if drained != (n < len(ds.Packets)) || n == 0 {
					t.Fatalf("%s: ingested %d of %d packets", label, n, len(ds.Packets))
				}
				if st.State != "stopped" {
					t.Fatalf("%s: state %s", label, st.State)
				}
				pre := prefix(ds, n)
				if !bytes.Equal(connlog.Bytes(), batchConnLog(t, pre, opts)) {
					t.Fatalf("%s: conn-log differs from the batch driver over the %d-packet prefix", label, n)
				}

				ref := trained(t, zeekPipeline(t, idle), ds)
				refMet := obs.NewMetrics()
				ref.Metrics = refMet
				want, err := ref.TestStream(pre, core.StreamConfig{ChunkRows: rows})
				if err != nil {
					t.Fatal(err)
				}
				got := parseAlerts(t, alerts.Bytes())
				if len(got) != len(want.Pred) || st.Verdicts != int64(len(want.Pred)) {
					t.Fatalf("%s: %d alert lines, %d verdicts counted, batch has %d", label, len(got), st.Verdicts, len(want.Pred))
				}
				for i, a := range got {
					if a.Pred != want.Pred[i] || a.Index != want.UnitIdx[i] || a.Phase != "flush" || a.Seq != -1 || a.Unit != "flow" {
						t.Fatalf("%s: alert %d = %+v, batch pred %d index %d", label, i, a, want.Pred[i], want.UnitIdx[i])
					}
				}
				evicted := func(m *obs.Metrics) uint64 {
					return m.Counter("lumen_flow_evicted_total", "", "output", "flows").Value()
				}
				if evicted(met) != evicted(refMet) || (idle > 0) != (evicted(met) > 0) {
					t.Fatalf("%s: lumen_flow_evicted_total = %d, a plain pass over the same packets counts %d", label, evicted(met), evicted(refMet))
				}
			}
		}
	}
}

// TestFlushLinesArriveBlockByBlock: a flow pipeline's verdicts reach the
// alert sink one flush block at a time, 512 connections each and the
// last partial, each block's lines sharing one ts; every line keeps
// phase "flush" and seq -1, and the lines run in the order of the whole
// trace's result, at every shape.
func TestFlushLinesArriveBlockByBlock(t *testing.T) {
	const block = 512
	spec, _ := dataset.Get("F3")
	ds := spec.Generate(2)
	want, err := trained(t, zeekPipeline(t, 0), ds).TestStream(ds, core.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(want.Pred); n <= 2*block || n%block == 0 {
		t.Fatalf("fixture: %d connections, want more than two blocks of %d and a partial last one", n, block)
	}
	for si, shape := range connShapes {
		var alerts bytes.Buffer
		shape.ChunkRows = 512
		p, err := New(Config{}).Start(PipeConfig{
			Name: "zeek", Engine: trained(t, zeekPipeline(t, 0), ds), Source: dataset.NewSliceSource(ds),
			Stream: shape, Alerts: &alerts,
		})
		if err != nil {
			t.Fatal(err)
		}
		<-p.Done()
		if err := p.Drain(); err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		got := parseAlerts(t, alerts.Bytes())
		if len(got) != len(want.Pred) {
			t.Fatalf("shape %d: %d alert lines, the whole-trace result has %d rows", si, len(got), len(want.Pred))
		}
		for i, a := range got {
			if a.Phase != "flush" || a.Seq != -1 || a.Index != want.UnitIdx[i] || a.Pred != want.Pred[i] {
				t.Fatalf("shape %d: alert %d = %+v, want flush seq -1 index %d pred %d", si, i, a, want.UnitIdx[i], want.Pred[i])
			}
			if (i%block == 0) == (i > 0 && a.TS == got[i-1].TS) {
				t.Fatalf("shape %d: alert %d has ts %s after %s: a block's lines must share one ts, and no other line", si, i, a.TS, got[i-1].TS)
			}
		}
	}
}

// lockedBuffer is a sink the test reads while the pipeline writes it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *lockedBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *lockedBuffer) Bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Clone(w.b.Bytes())
}

// TestFlushLinesArriveWhileStreaming: a flow pipeline writes its first
// blocks' flush lines and conn-log rows while the source still holds its
// last chunk, at every shape; once the source ends, the alert lines are
// the whole trace's result and the conn-log the batch log of
// flow.Connections. The trace spans minutes, so most of its connections
// close long before it ends; the model is fitted on a shorter one.
func TestFlushLinesArriveWhileStreaming(t *testing.T) {
	spec, _ := dataset.Get("F3")
	ds, train := spec.Generate(10), spec.Generate(2)
	const rows = 512
	chunks := (len(ds.Packets) + rows - 1) / rows
	want, err := trained(t, zeekPipeline(t, 0), train).TestStream(ds, core.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantLog := batchConnLog(t, ds, flow.Options{})
	for si, shape := range connShapes {
		var alerts, connlog lockedBuffer
		gate := newGate(dataset.NewSliceSource(ds))
		shape.ChunkRows = rows
		p, err := New(Config{}).Start(PipeConfig{
			Name: "zeek", Engine: trained(t, zeekPipeline(t, 0), train), Source: gate,
			Stream: shape, Alerts: &alerts, ConnLog: &connlog,
		})
		if err != nil {
			t.Fatal(err)
		}
		gate.allow(chunks - 1)
		waitFor(t, 5*time.Second, "a flush line", func() bool { return bytes.Contains(alerts.Bytes(), []byte(`"phase":"flush"`)) })
		if n := p.Status().Packets; n >= int64(len(ds.Packets)) {
			t.Fatalf("shape %d: the first flush line came after all %d packets", si, n)
		}
		if lines := bytes.Count(connlog.Bytes(), []byte("\n")); lines < 2 {
			t.Fatalf("shape %d: %d conn-log lines before the last chunk, want the header and rows", si, lines)
		}
		gate.allow(2)
		<-p.Done()
		if err := p.Drain(); err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		got := parseAlerts(t, alerts.Bytes())
		if len(got) != len(want.Pred) {
			t.Fatalf("shape %d: %d alert lines, the whole-trace result has %d rows", si, len(got), len(want.Pred))
		}
		for i, a := range got {
			if a.Index != want.UnitIdx[i] || a.Pred != want.Pred[i] {
				t.Fatalf("shape %d: alert %d = %+v, want index %d pred %d", si, i, a, want.UnitIdx[i], want.Pred[i])
			}
		}
		if !bytes.Equal(connlog.Bytes(), wantLog) {
			t.Fatalf("shape %d: conn-log differs from the batch log", si)
		}
	}
}

// TestReloadClosesConnections: a reload ends the pass, and a pass
// boundary closes every open connection, for a packet pipeline (the
// engine's log-only sink) and a flow pipeline (its own sink) alike. The
// source restarts at its first timestamp, so without that the replayed
// packets would join the first pass's still-open connections and the log
// would show one pass with doubled counters. Each pass writes its own
// section, so the log's lines are the union of each pass's batch log over
// the packets that pass ingested; here, stronger, the sections in order.
func TestReloadClosesConnections(t *testing.T) {
	ds := testDS(t)
	rows := chunkRowsFor(len(ds.Packets), 12)
	for _, tc := range []struct {
		path string
		eng  *core.Engine
	}{
		{"log-only sink", trainedEngine(t, ds)},
		{"flow sink", trained(t, zeekPipeline(t, 0), ds)},
	} {
		gate := newGate(dataset.NewSliceSource(ds))
		var connlog bytes.Buffer
		p, err := New(Config{}).Start(PipeConfig{
			Name: "reload", Engine: tc.eng, Source: gate,
			Stream: core.StreamConfig{ChunkRows: rows}, ConnLog: &connlog,
		})
		if err != nil {
			t.Fatal(err)
		}
		gate.allow(3)
		waitFor(t, 5*time.Second, "3 chunks", func() bool { return p.Status().Chunks >= 3 })
		first := int(p.Status().Packets)
		if err := p.Reload(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "second pass", func() bool { return p.Status().Reloads == 1 })
		gate.allow(5)
		waitFor(t, 5*time.Second, "chunks after reload", func() bool { return p.Status().Chunks >= 8 })
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		st := p.Status()
		second := int(st.Packets) - first
		if st.Passes != 2 || first == 0 || second <= first || second >= len(ds.Packets) {
			t.Fatalf("%s: status %+v after passes of %d and %d packets", tc.path, st, first, second)
		}
		want := append(batchConnLog(t, prefix(ds, first), flow.Options{}), batchConnLog(t, prefix(ds, second), flow.Options{})...)
		if !bytes.Equal(connlog.Bytes(), want) {
			t.Fatalf("%s: conn-log after reload+drain is not the two passes' logs in order:\n%s", tc.path, connlog.Bytes())
		}
	}
}

// failAfter is a source that fails once it has handed out n chunks.
type failAfter struct {
	dataset.Source
	n   int
	err error
}

func (s *failAfter) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	if s.n == 0 {
		s.err = errors.New("capture truncated")
		return dataset.Chunk{}, false
	}
	s.n--
	return s.Source.Next(maxRows, maxBytes)
}

func (s *failAfter) Err() error { return s.err }

// TestFailedPassEndsConnLogAtLastHandOff: a packet pipeline whose pass
// fails ends its conn-log section at the last connections the pass
// handed on, as a flow pipeline does: the log is the batch log of the
// packets it ingested cut after some row, never a connection that was
// still open. The trace spans minutes, so connections close before the
// source fails.
func TestFailedPassEndsConnLogAtLastHandOff(t *testing.T) {
	spec, _ := dataset.Get("F5")
	ds := spec.Generate(2)
	const rows, chunks = 64, 40
	for _, depth := range []int{0, 2} {
		var connlog bytes.Buffer
		p, err := New(Config{}).Start(PipeConfig{
			Name: "failing", Engine: trainedEngine(t, ds),
			Source: &failAfter{Source: dataset.NewSliceSource(ds), n: chunks},
			Stream: core.StreamConfig{ChunkRows: rows, PipelineDepth: depth}, ConnLog: &connlog,
		})
		if err != nil {
			t.Fatal(err)
		}
		<-p.Done()
		st := p.Status()
		if st.State != "failed" || !strings.Contains(st.Error, "capture truncated") || st.Packets != rows*chunks {
			t.Fatalf("depth %d: status %+v, want failed on the source's error after %d packets", depth, st, rows*chunks)
		}
		got := connlog.Bytes()
		full := batchConnLog(t, prefix(ds, rows*chunks), flow.Options{})
		if bytes.Count(got, []byte("\n")) < 2 || len(got) >= len(full) || !bytes.HasPrefix(full, got) {
			t.Fatalf("depth %d: conn-log of %d lines is not the batch log of the ingested packets (%d lines) cut after a row", depth, bytes.Count(got, []byte("\n")), bytes.Count(full, []byte("\n")))
		}
	}
}
