package algorithms

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/flow"
)

// builtins returns every built-in algorithm: A00–A15 and AM01–AM03.
func builtins() []Algorithm { return append(All(), Modified()...) }

// TestGoldenStreamPlans pins the streaming plan of every built-in
// pipeline in both modes: per op its stage
// (worker, ordered, sink with the member stats it keeps a flow, close
// or drain), plus the accumulated values (the outputs of the ops whose
// StreamPlan.Accum entry is set, by name), the decode hint and the drain
// barrier. The golden was recorded before the op traits replaced core's
// name-keyed tables, and it held when the planner moved from names to
// slots; a diff means a pipeline now executes differently. On a mismatch
// the test writes what it computed to the system temp directory: copy it
// over the golden only when the plan change is intended.
func TestGoldenStreamPlans(t *testing.T) {
	var got bytes.Buffer
	for _, a := range builtins() {
		for _, mode := range []core.Mode{core.ModeTrain, core.ModeTest} {
			modeName := "train"
			if mode == core.ModeTest {
				modeName = "test"
			}
			pl, err := core.NewEngine(a.Pipeline).StreamPlan(mode)
			if err != nil {
				t.Fatalf("%s: %v", a.ID, err)
			}
			var accum []string
			for i, acc := range pl.Accum {
				if acc {
					accum = append(accum, a.Pipeline.Ops[i].Output)
				}
			}
			sort.Strings(accum)
			barrier := "none"
			if b := pl.Barrier; b != nil {
				barrier = fmt.Sprintf("%d(%s)", b.Index, b.Reason)
			}
			fmt.Fprintf(&got, "%s %s decode={Headers:%v Apps:%d} accum=%v barrier=%s\n",
				a.ID, modeName, pl.Decode.Headers, pl.Decode.Apps, accum, barrier)
			for i, op := range a.Pipeline.Ops {
				fmt.Fprintf(&got, "  %2d %-20s -> %-14s stage=%s", i, op.Func, op.Output, pl.Stage[i])
				switch {
				case pl.Stage[i] != core.StageSink:
				case pl.StatCap[i] == core.AllStats:
					fmt.Fprint(&got, " stats=all")
				default:
					fmt.Fprintf(&got, " stats=%d", pl.StatCap[i])
				}
				fmt.Fprintln(&got)
			}
		}
	}
	const golden = "testdata/stream_plans.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		actual := filepath.Join(os.TempDir(), "stream_plans.golden")
		if err := os.WriteFile(actual, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("stream plans differ from %s; computed plans written to %s", golden, actual)
	}
}

// TestFlowSinkKeepsDemandedStats: a pass's flow sink keeps the member
// stats its readers read (StreamPlan.StatCap), no more: none on A14's
// connections, whose features are all counters; at most the first
// hundred on A12's, which reads first_n_* features; every member's on
// A13's, which reads the whole catalogue. The trace holds connections
// longer than a hundred packets, so A12's cap binds.
func TestFlowSinkKeepsDemandedStats(t *testing.T) {
	spec, _ := dataset.Get("F2")
	ds := spec.Generate(5)
	for _, tc := range []struct {
		id  string
		cap int
	}{{"A14", 0}, {"A12", 100}, {"A13", core.AllStats}} {
		a, _ := Get(tc.id)
		var conns []*flow.Flow
		cfg := core.StreamConfig{ChunkRows: 512, Hooks: &core.StreamHooks{ConnsClosed: func(cs []*flow.Flow) error {
			conns = cs
			return nil
		}}}
		eng := core.NewEngine(a.Pipeline)
		eng.Seed = 1
		if _, err := eng.RunStream(dataset.NewSliceSource(ds), core.ModeTrain, cfg); err != nil {
			t.Fatal(err)
		}
		long := 0
		for _, c := range conns {
			pkts := c.OrigPkts + c.RespPkts
			if pkts > 100 {
				long++
			}
			if want := min(pkts, tc.cap); len(c.Stats) != want {
				t.Fatalf("%s: a connection of %d packets keeps %d stats, want %d", tc.id, pkts, len(c.Stats), want)
			}
		}
		if len(conns) == 0 || long == 0 {
			t.Fatalf("%s: fixture: %d connections, %d of them over 100 packets", tc.id, len(conns), long)
		}
	}
}

// FuzzParsePipeline feeds arbitrary bytes to the template parser: it
// must return an error or a pipeline that plans (stream split and decode
// hint) without panicking in both modes, which
// walks hostile params through every op's ordered and decode traits.
// Fuzzed pipelines are never executed: model params such as a tree
// count are unbounded. The seeds are the built-in templates, the first
// followed by garbage and by itself, A06 under decay-rate lists the
// type-check accepts and refuses, and a connection pipeline under flow
// params it refuses.
func FuzzParsePipeline(f *testing.F) {
	for i, a := range builtins() {
		data, err := core.MarshalPipeline(a.Pipeline)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if i == 0 {
			f.Add(append(slices.Clone(data), "garbage"...))
			f.Add(append(slices.Clone(data), data...))
		}
	}
	a06, _ := Get("A06")
	for _, lambdas := range []string{`[0.5, 0]`, `[]`, `[0.1, -1]`, `[0.1, "fast"]`, `0.1`} {
		data, err := core.MarshalPipeline(a06.Pipeline)
		if err != nil {
			f.Fatal(err)
		}
		// The first op is kitsune_features, marshalled with null params.
		f.Add(bytes.Replace(data, []byte(`"params": null`), []byte(`"params": {"lambdas": `+lambdas+`}`), 1))
	}
	for _, bad := range [][2]map[string]any{
		{{"granularity": "connection"}, {"features": []string{"duration", "durration"}}},
		{{"granularity": "connection"}, {"features": []string{"duration", "pps", "duration"}}},
		{{"granularity": "connection"}, {"first_n": -1}},
		{{"granularity": "connection"}, {"first_n": 0}},
		{{"granularity": "uniflow", "idle_timeout": -30}, nil},
	} {
		p := connFeaturePipeline("bad-flow-params", nil, "", "decision_tree", nil)
		p.Ops[0].Params, p.Ops[1].Params = bad[0], bad[1]
		data, err := core.MarshalPipeline(p)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := core.ParsePipeline(data); err == nil {
			f.Fatalf("template with flow params %v %v parses", bad[0], bad[1])
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := core.ParsePipeline(data)
		if err != nil {
			return
		}
		for _, mode := range []core.Mode{core.ModeTrain, core.ModeTest} {
			if _, err := core.NewEngine(p).StreamPlan(mode); err != nil {
				t.Fatalf("parsed pipeline fails to plan: %v", err)
			}
		}
	})
}
