package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"lumen/internal/algorithms"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
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
	if err := flow.WriteConnLog(&b, flow.Connections(ds.Packets, opts)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestConnLogFromFlowSink: a pipeline whose plan assembles connections
// logs them from that sink, with no assembler of the daemon's own. At
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
				if p.conn != nil {
					t.Fatalf("%s: the daemon runs an assembler of its own beside the plan's connection sink", label)
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
				if st.ConnLog != "flow_sink" || st.State != "stopped" {
					t.Fatalf("%s: status conn_log %q, state %s", label, st.ConnLog, st.State)
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

// TestReloadClosesConnections: a reload ends the pass, and a pass
// boundary closes every open connection on both conn-log paths. The
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
		{"assembler", trainedEngine(t, ds)},
		{"flow_sink", trained(t, zeekPipeline(t, 0), ds)},
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
		if st.ConnLog != tc.path || st.Passes != 2 || first == 0 || second <= first || second >= len(ds.Packets) {
			t.Fatalf("%s: status %+v after passes of %d and %d packets", tc.path, st, first, second)
		}
		want := append(batchConnLog(t, prefix(ds, first), flow.Options{}), batchConnLog(t, prefix(ds, second), flow.Options{})...)
		if !bytes.Equal(connlog.Bytes(), want) {
			t.Fatalf("%s: conn-log after reload+drain is not the two passes' logs in order:\n%s", tc.path, connlog.Bytes())
		}
	}
}

// TestStatusOmitsConnLogWithoutOne: conn_log is absent from /pipelines
// for a pipeline that writes no conn-log.
func TestStatusOmitsConnLogWithoutOne(t *testing.T) {
	ds := testDS(t)
	p, err := New(Config{}).Start(PipeConfig{
		Name: "nolog", Engine: trainedEngine(t, ds),
		Source: NewReplaySource(dataset.NewSliceSource(ds), 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(p.Status())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(js, []byte("conn_log")) {
		t.Fatalf("status of a pipeline without a conn-log names one: %s", js)
	}
}
