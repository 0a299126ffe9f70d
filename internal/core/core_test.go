package core

import (
	"slices"
	"strings"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/mlkit"
)

func smallDS(t *testing.T, id string) *dataset.Labeled {
	t.Helper()
	spec, ok := dataset.Get(id)
	if !ok {
		t.Fatalf("no dataset %s", id)
	}
	return spec.Generate(0.15)
}

func TestFrameBasics(t *testing.T) {
	f := NewFrame(3)
	f.AddF("a", []float64{1, 2, 3})
	f.AddS("s", []string{"x", "y", "x"})
	if c := f.Col("a"); c == nil || !c.IsNumeric() {
		t.Fatal("column a missing or not numeric")
	}
	if c := f.Col("nope"); c != nil {
		t.Fatal("unknown column should be nil")
	}
	m := f.Matrix()
	if len(m) != 3 || len(m[0]) != 1 || m[2][0] != 3 {
		t.Fatalf("matrix = %v", m)
	}
	sel, err := f.Select([]string{"s"})
	if err != nil || len(sel.Cols) != 1 {
		t.Fatalf("select: %v / %d cols", err, len(sel.Cols))
	}
	if _, err := f.Select([]string{"missing"}); err == nil {
		t.Fatal("select of missing column should error")
	}
}

func TestFrameAddFPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	f := NewFrame(2)
	f.AddF("a", []float64{1})
}

func TestFrameFilterAndTakeRows(t *testing.T) {
	f := NewFrame(4)
	f.AddF("v", []float64{10, 20, 30, 40})
	f.Labels = []int{0, 1, 0, 1}
	f.Attacks = []string{"", "x", "", "y"}
	f.UnitIdx = []int{0, 1, 2, 3}
	out := f.FilterRows([]bool{false, true, false, true})
	if out.N != 2 || out.Col("v").F[0] != 20 || out.Labels[1] != 1 || out.Attacks[1] != "y" {
		t.Fatalf("filter result wrong: %+v", out)
	}
}

func TestOpsRegistryCoverage(t *testing.T) {
	ops := Ops()
	if len(ops) < 15 {
		t.Fatalf("only %d ops registered; the framework should offer a rich op set", len(ops))
	}
	for _, name := range ops {
		if opRegistry[name].doc == "" {
			t.Errorf("op %q has no doc", name)
		}
	}
}

// TestOpRegistryComplete pins that the op table is the whole truth: no
// op lacks a stream class (register refuses one), every reader of the
// packet input says how deep it decodes, only stateless ops are
// cacheable, and every field field_extract knows has a decode need that
// is exactly what filling its column touches.
func TestOpRegistryComplete(t *testing.T) {
	for name, def := range opRegistry {
		tr := def.traits
		if tr.class == classUnset {
			t.Errorf("op %s declares no stream class", name)
		}
		if reads := slices.Contains(def.sig.in, KindPackets); reads != (tr.decode != nil) {
			t.Errorf("op %s: reads packets = %v but declares a decode trait = %v", name, reads, tr.decode != nil)
		}
		if tr.cacheable && tr.class == classFitted {
			t.Errorf("op %s is cacheable but carries fitted state", name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("register accepted an op with no stream class")
			}
		}()
		register("classless", "", opSig{}, opTraits{}, nil)
	}()

	packetFields := allPacketFields()
	if len(packetFieldIndex) != len(packetFields) {
		t.Errorf("%d field names index to %d entries: a name is listed twice", len(packetFields), len(packetFieldIndex))
	}
	ds := smallDS(t, "F1")
	for _, f := range packetFields {
		pf := packetFieldIndex[f]
		pk := newPackets(ds)
		if _, err := opFieldExtract(chunkCtx(), []Value{pk}, params{"fields": []any{f}}); err != nil {
			t.Fatalf("field %s: %v", f, err)
		}
		var hdrs, apps bool
		for i := range pk.Views {
			hdrs = hdrs || pk.Views[i].HeadersDecoded()
			apps = apps || pk.Views[i].AppDecoded()
		}
		if hdrs != pf.need.Headers || apps && pf.need.Apps == 0 {
			t.Errorf("field %s declares need %+v but filling it decoded headers=%v apps=%v", f, pf.need, hdrs, apps)
		}
	}
}

func TestFieldExtractValues(t *testing.T) {
	ds := smallDS(t, "F1")
	fr, err := opFieldExtract(chunkCtx(), []Value{newPackets(ds)}, params{
		"fields": []any{"ts", "len", "src_ip", "dst_port", "tcp_syn"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := fr.(*Frame)
	if f.N != len(ds.Packets) {
		t.Fatalf("rows %d != packets %d", f.N, len(ds.Packets))
	}
	if f.Col("src_ip") == nil || f.Col("src_ip").IsNumeric() {
		t.Fatal("src_ip should be a string column")
	}
	// ts must be non-decreasing, len positive.
	tsCol, lenCol := f.Col("ts").F, f.Col("len").F
	for i := range tsCol {
		if i > 0 && tsCol[i] < tsCol[i-1] {
			t.Fatalf("ts not sorted at %d", i)
		}
		if lenCol[i] <= 0 {
			t.Fatalf("len[%d] = %v", i, lenCol[i])
		}
	}
	if f.Labels == nil || len(f.Labels) != f.N {
		t.Fatal("labels not propagated to frame")
	}
}

func TestFieldExtractUnknownField(t *testing.T) {
	ds := smallDS(t, "F1")
	_, err := opFieldExtract(chunkCtx(), []Value{newPackets(ds)}, params{"fields": []any{"bogus"}})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

func TestGroupByAndAggregates(t *testing.T) {
	f := NewFrame(6)
	f.AddS("key", []string{"a", "a", "b", "b", "b", "a"})
	f.AddF("ts", []float64{0, 1, 2, 3, 4, 5})
	f.AddF("v", []float64{1, 3, 10, 10, 40, 2})
	f.Labels = []int{0, 0, 1, 1, 1, 0}
	f.Attacks = []string{"", "", "syn", "syn", "syn", ""}
	g, err := groupRows(f, []string{"key"})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(g.Groups))
	}
	out, err := opApplyAggregates(nil, []Value{g}, params{
		"list": []any{
			map[string]any{"col": "v", "fn": "mean"},
			map[string]any{"col": "v", "fn": "max"},
			map[string]any{"col": "v", "fn": "count"},
			map[string]any{"col": "v", "fn": "distinct"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	af := out.(*Frame)
	if af.N != 2 {
		t.Fatalf("agg rows = %d, want 2", af.N)
	}
	// Group a = rows {0,1,5}: mean 2, max 3, count 3, distinct 3.
	if got := af.Col("v_mean").F[0]; got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
	if got := af.Col("v_max").F[0]; got != 3 {
		t.Errorf("max = %v, want 3", got)
	}
	if got := af.Col("v_count").F[0]; got != 3 {
		t.Errorf("count = %v, want 3", got)
	}
	// Group b = rows {2,3,4}: label 1 (majority), attack syn.
	if af.Labels[1] != 1 || af.Attacks[1] != "syn" {
		t.Errorf("group label/attack = %d/%q, want 1/syn", af.Labels[1], af.Attacks[1])
	}
}

func TestTimeSliceSplitsGroups(t *testing.T) {
	f := NewFrame(4)
	f.AddS("key", []string{"a", "a", "a", "a"})
	f.AddF("ts", []float64{0, 1, 11, 12})
	g, _ := groupRows(f, []string{"key"})
	out, err := opTimeSlice(nil, []Value{g}, params{"window": 10.0})
	if err != nil {
		t.Fatal(err)
	}
	g2 := out.(*Grouped)
	if len(g2.Groups) != 2 {
		t.Fatalf("time slices = %d, want 2", len(g2.Groups))
	}
	if len(g2.Groups[0]) != 2 || len(g2.Groups[1]) != 2 {
		t.Fatalf("slice sizes = %d/%d, want 2/2", len(g2.Groups[0]), len(g2.Groups[1]))
	}
}

func TestBroadcastAggregatesKeepsRowUnit(t *testing.T) {
	f := NewFrame(4)
	f.Unit = UnitPacket
	f.UnitIdx = []int{0, 1, 2, 3}
	f.AddS("key", []string{"a", "b", "a", "b"})
	f.AddF("ts", []float64{0, 1, 2, 3})
	f.AddF("v", []float64{2, 10, 4, 20})
	g, _ := groupRows(f, []string{"key"})
	out, err := opBroadcastAggregates(nil, []Value{g}, params{
		"list": []any{map[string]any{"col": "v", "fn": "mean"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bf := out.(*Frame)
	if bf.N != 4 || bf.Unit != UnitPacket {
		t.Fatalf("broadcast changed row unit: N=%d unit=%v", bf.N, bf.Unit)
	}
	col := bf.Col("grp_v_mean").F
	want := []float64{3, 15, 3, 15}
	for i := range want {
		if col[i] != want[i] {
			t.Errorf("row %d group mean = %v, want %v", i, col[i], want[i])
		}
	}
}

func TestNormalizeStatefulAcrossModes(t *testing.T) {
	train := NewFrame(3)
	train.AddF("v", []float64{0, 5, 10})
	test := NewFrame(2)
	test.AddF("v", []float64{5, 20})

	ctx := &opCtx{stream: oneChunk(), mode: ModeTrain, outName: "n", state: make([]any, 1)}
	if _, err := opNormalize(ctx, []Value{train}, params{"kind": "minmax"}); err != nil {
		t.Fatal(err)
	}
	ctx2 := &opCtx{stream: oneChunk(), mode: ModeTest, outName: "n", state: ctx.state}
	out, err := opNormalize(ctx2, []Value{test}, params{"kind": "minmax"})
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*Frame).Col("v").F
	if got[0] != 0.5 || got[1] != 1 { // 20 clamps to 1 using train range
		t.Fatalf("normalized = %v, want [0.5 1]", got)
	}
}

func TestNormalizeTestBeforeTrainErrors(t *testing.T) {
	f := NewFrame(1)
	f.AddF("v", []float64{1})
	ctx := &opCtx{stream: oneChunk(), mode: ModeTest, outName: "n", state: make([]any, 1)}
	if _, err := opNormalize(ctx, []Value{f}, params{}); err == nil {
		t.Fatal("want not-fitted error")
	}
}

const fig4Template = `{
  "name": "fig4-example",
  "granularity": "packet",
  "ops": [
    {"func": "field_extract", "input": ["$packets"], "output": "Packets",
     "params": {"fields": ["ts", "src_ip", "dst_ip", "tcp_flags", "len", "dst_port", "proto", "iat"]}},
    {"func": "group_by", "input": ["Packets"], "output": "Grouped_packets",
     "params": {"flowid": ["src_ip"]}},
    {"func": "time_slice", "input": ["Grouped_packets"], "output": "Sliced_packets",
     "params": {"window": 10}},
    {"func": "broadcast_aggregates", "input": ["Sliced_packets"], "output": "Features",
     "params": {"list": [
        {"col": "len", "fn": "mean"},
        {"col": "len", "fn": "bandwidth"},
        {"col": "iat", "fn": "mean"},
        {"col": "dst_ip", "fn": "distinct"}
     ]}},
    {"func": "select", "input": ["Features"], "output": "X",
     "params": {"cols": ["len", "tcp_flags", "dst_port", "proto", "grp_len_mean", "grp_len_bandwidth", "grp_iat_mean", "grp_dst_ip_distinct"]}},
    {"func": "model", "input": [], "output": "clf1",
     "params": {"model_type": "random_forest", "n_trees": 15}},
    {"func": "train", "input": ["clf1", "X"], "output": "trained"}
  ]
}`

func TestFig4TemplateEndToEnd(t *testing.T) {
	p, err := ParsePipeline([]byte(fig4Template))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p)
	eng.Seed = 1
	ds := smallDS(t, "P0")
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != len(ds.Packets) {
		t.Fatalf("predictions %d, packets %d", len(res.Pred), len(ds.Packets))
	}
	prec := mlkit.Precision(res.Truth, res.Pred)
	rec := mlkit.Recall(res.Truth, res.Pred)
	if prec < 0.8 || rec < 0.5 {
		t.Errorf("train-on-test precision %.3f recall %.3f too low for a loud-attack dataset", prec, rec)
	}
	// The engine must have profiled every op.
	if len(eng.Profile) != len(p.Ops) {
		t.Errorf("profile has %d entries, want %d", len(eng.Profile), len(p.Ops))
	}
	for _, st := range eng.Profile {
		if st.Func == "" || st.Wall < 0 {
			t.Errorf("bad profile entry %+v", st)
		}
	}
}

func TestConnectionPipelineEndToEnd(t *testing.T) {
	p := &Pipeline{
		Name:        "conn-rf",
		Granularity: "connection",
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "flows", Params: map[string]any{"granularity": "connection"}},
			{Func: "flow_features", Input: []string{"flows"}, Output: "X"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "random_forest", "n_trees": 15}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
	eng := NewEngine(p)
	eng.Seed = 3
	ds := smallDS(t, "F1")
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unit != UnitFlow {
		t.Fatalf("unit = %v, want flow", res.Unit)
	}
	if prec := mlkit.Precision(res.Truth, res.Pred); prec < 0.8 {
		t.Errorf("same-data precision %.3f too low", prec)
	}
	// Attack attribution must be present for malicious units.
	sawAttack := false
	for i := range res.Truth {
		if res.Truth[i] == 1 && res.Attacks[i] != "" {
			sawAttack = true
		}
	}
	if !sawAttack {
		t.Error("no attack attribution on malicious flows")
	}
}

func TestCheckRejectsBadPipelines(t *testing.T) {
	cases := []struct {
		name string
		p    *Pipeline
		want string
	}{
		{
			"unknown-op",
			&Pipeline{Granularity: "packet", Ops: []OpSpec{{Func: "nope", Output: "x"}}},
			"unknown func",
		},
		{
			"undefined-input",
			&Pipeline{Granularity: "packet", Ops: []OpSpec{
				{Func: "field_extract", Input: []string{"ghost"}, Output: "f", Params: map[string]any{"fields": []any{"len"}}},
			}},
			"not defined",
		},
		{
			"kind-mismatch",
			&Pipeline{Granularity: "packet", Ops: []OpSpec{
				{Func: "field_extract", Input: []string{InputName}, Output: "f", Params: map[string]any{"fields": []any{"len"}}},
				{Func: "flow_features", Input: []string{"f"}, Output: "g"},
			}},
			"want flows",
		},
		{
			"no-train",
			&Pipeline{Granularity: "packet", Ops: []OpSpec{
				{Func: "field_extract", Input: []string{InputName}, Output: "f", Params: map[string]any{"fields": []any{"len"}}},
			}},
			"no train op",
		},
		{
			"bad-granularity",
			&Pipeline{Granularity: "frobs", Ops: []OpSpec{
				{Func: "field_extract", Input: []string{InputName}, Output: "f", Params: map[string]any{"fields": []any{"len"}}},
			}},
			"granularity",
		},
		{
			"duplicate-output",
			&Pipeline{Granularity: "packet", Ops: []OpSpec{
				{Func: "field_extract", Input: []string{InputName}, Output: "f", Params: map[string]any{"fields": []any{"len"}}},
				{Func: "field_extract", Input: []string{InputName}, Output: "f", Params: map[string]any{"fields": []any{"len"}}},
			}},
			"already defined",
		},
	}
	for _, c := range cases {
		err := NewEngine(c.p).Check()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestParsePipelineRejectsUnknownFields(t *testing.T) {
	_, err := ParsePipeline([]byte(`{"name":"x","granularity":"packet","surprise":1,"ops":[]}`))
	if err == nil {
		t.Fatal("want error on unknown top-level field")
	}
}

// TestParsePipelineRefusesTrailingData: a template is one document.
// Bytes after it, another template included, fail the parse instead of
// being ignored; trailing whitespace is still fine.
func TestParsePipelineRefusesTrailingData(t *testing.T) {
	if _, err := ParsePipeline([]byte(fig4Template + " \n\t")); err != nil {
		t.Fatalf("a template with trailing whitespace: %v", err)
	}
	for _, tc := range []struct{ name, tail string }{
		{"garbage", "garbage"},
		{"a second template", fig4Template},
		{"an empty object", "{}"},
		{"a stray brace", "}"},
	} {
		if _, err := ParsePipeline([]byte(fig4Template + tc.tail)); err == nil || !strings.Contains(err.Error(), "parsing pipeline template") {
			t.Errorf("%s after the template: err = %v, want a parse error", tc.name, err)
		}
	}
}

func TestTestBeforeTrainFails(t *testing.T) {
	p, _ := ParsePipeline([]byte(fig4Template))
	eng := NewEngine(p)
	if _, err := eng.Test(smallDS(t, "P0")); err == nil {
		t.Fatal("want error on Test before Train")
	}
}

func TestDeadValueElimination(t *testing.T) {
	p, _ := ParsePipeline([]byte(fig4Template))
	eng := NewEngine(p)
	freedAt := func(mode Mode) map[string]int {
		t.Helper()
		r, err := newStreamExec(eng, dataset.NewSliceSource(smallDS(t, "P0")), mode, StreamConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		at := map[string]int{}
		for i, slots := range r.free {
			for _, s := range slots {
				name := InputName
				if s < len(p.Ops) {
					name = p.Ops[s].Output
				}
				if _, dup := at[name]; dup {
					t.Errorf("%q freed twice", name)
				}
				at[name] = i
			}
		}
		return at
	}
	for _, mode := range []Mode{ModeTrain, ModeTest} {
		at := freedAt(mode)
		// "Packets" is last read by the group_by op (index 1): after op 1 it
		// must be freed, although field_extract made it in the chunk and
		// group_by reads it at flush.
		if i, ok := at["Packets"]; !ok || i != 1 {
			t.Errorf("mode %d: Packets freed after op %d (%v), want 1", mode, i, ok)
		}
		// The train op (index 6) reads clf1 and X.
		if at["X"] != 6 || at["clf1"] != 6 {
			t.Errorf("mode %d: X freed after op %d, clf1 after op %d, want 6/6", mode, at["X"], at["clf1"])
		}
		if _, ok := at[InputName]; ok {
			t.Errorf("mode %d: the chunk's packets were freed", mode)
		}
	}
	// At run time, in both modes: fig4's chunks and drain job; worker
	// fields (field_extract without iat) hooked for the train frame; and a
	// flow pipeline that scores blocks of closed flows in test mode.
	workers := fieldPipeline()
	workers.Ops[0].Params = map[string]any{"fields": []any{"ts", "len", "ttl", "dst_port", "tcp_syn"}}
	for _, tc := range []struct {
		p      *Pipeline
		ds     string
		hooked bool
	}{
		{p, "P0", false},
		{workers, "P0", true},
		{flowPipeline("decision_tree", nil), "F1", false},
	} {
		e := NewEngine(tc.p)
		e.Seed = 1
		ds := smallDS(t, tc.ds)
		for _, mode := range []Mode{ModeTrain, ModeTest} {
			deadValuesCleared(t, e, ds, mode, tc.hooked)
		}
	}
}

// deadValuesCleared runs one pass of e over ds in 64-row chunks at depth
// 0, driving a chunk's stages itself, and checks after each stage of a
// chunk, after each block of closed flows and after the drain job that
// every value whose readers in that job have all run is gone from the
// job's environment. The packets are exempt, and so, on a hooked pass
// (WantFeatures), is the train op's frame, and, in a chunk, any value
// a deferred op reads, which absorb accumulates. Values are found by
// name here, independently of the engine's slots.
func deadValuesCleared(t *testing.T, e *Engine, ds *dataset.Labeled, mode Mode, hooked bool) {
	t.Helper()
	ops := e.P.Ops
	producer := map[string]int{}
	for i, op := range ops {
		producer[op.Output] = i
	}
	var r *streamExec
	keep, blocks := "", 0
	check := func(what string, env []Value, ran, later func(int) bool, chunk bool) {
		t.Helper()
		for i, op := range ops {
			if !ran(i) {
				continue
			}
			for _, name := range op.Input {
				j, ok := producer[name]
				if !ok || name == keep || chunk && r.pl.Accum[j] {
					continue
				}
				pending := slices.ContainsFunc(ops, func(k OpSpec) bool {
					return slices.Contains(k.Input, name) && later(producer[k.Output])
				})
				if !pending && env[j] != nil {
					t.Errorf("%s %s (mode %d): %q outlives its last reader, op %d", e.P.Name, what, mode, name, i)
				}
			}
		}
	}
	none := func(int) bool { return false }
	cfg := StreamConfig{ChunkRows: 64, Hooks: &StreamHooks{WantFeatures: hooked, AfterChunk: func(up ChunkUpdate) error {
		if up.Flush && slices.ContainsFunc(ops, func(op OpSpec) bool { return r.block != nil && r.block.ran(producer[op.Output]) }) {
			blocks++
			check("block", r.block.env, r.block.ran, none, false)
		}
		return nil
	}}}
	src := dataset.NewSliceSource(ds)
	var err error
	if r, err = newStreamExec(e, src, mode, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if hooked {
		keep = ops[e.trainOp].Input[1]
	}
	for {
		ck, ok := src.Next(cfg.ChunkRows, 0)
		if !ok {
			break
		}
		job := r.prepare(dataset.NumberedChunk{Seq: r.nChunks, Chunk: ck}, nil)
		check("chunk worker stage", job.env, job.ran, func(k int) bool { return r.stage[k] == StageOrdered }, true)
		if err := r.sinkChunk(job, nil, func(dataset.NumberedChunk) {}); err != nil {
			t.Fatal(err)
		}
		check("chunk ordered stage", job.env, job.ran, none, true)
	}
	if _, err := r.finish(); err != nil {
		t.Fatal(err)
	}
	// The drain job's environment is fenv, and it ran the drain ops.
	check("drain job", r.fenv, func(i int) bool { return r.stage[i] == StageDrain }, none, false)
	if r.closeSink != nil && blocks == 0 {
		t.Errorf("%s (mode %d): no block of closed flows was checked", e.P.Name, mode)
	}
}

func TestKitsuneFeaturesShape(t *testing.T) {
	ds := smallDS(t, "P1")
	out, err := opKitsuneFeatures(chunkCtx(), []Value{newPackets(ds)}, params{})
	if err != nil {
		t.Fatal(err)
	}
	f := out.(*Frame)
	if f.N != len(ds.Packets) {
		t.Fatalf("rows %d != packets %d", f.N, len(ds.Packets))
	}
	if len(f.Cols) != 39 { // 3 lambdas x 13 stats
		t.Fatalf("kitsune features = %d cols, want 39", len(f.Cols))
	}
}

func TestKitsuneFeaturesWorkOn80211(t *testing.T) {
	ds := smallDS(t, "P2")
	out, err := opKitsuneFeatures(chunkCtx(), []Value{newPackets(ds)}, params{})
	if err != nil {
		t.Fatal(err)
	}
	f := out.(*Frame)
	// Rates (weights) must be nonzero for most rows even without IPs.
	nz := 0
	col := f.Col("k_1_srcw").F
	for _, v := range col {
		if v > 0 {
			nz++
		}
	}
	if nz < f.N/2 {
		t.Errorf("only %d/%d rows have src weight > 0 on 802.11", nz, f.N)
	}
}

func TestNPrintOpVariants(t *testing.T) {
	ds := smallDS(t, "P0")
	for _, v := range []string{"all", "tcp_udp_ipv4", "tcp_udp_ipv4_payload", "tcp_icmp_ipv4"} {
		out, err := opNPrint(chunkCtx(), []Value{newPackets(ds)}, params{"variant": v})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if out.(*Frame).N != len(ds.Packets) {
			t.Fatalf("%s: row mismatch", v)
		}
	}
	if _, err := opNPrint(chunkCtx(), []Value{newPackets(ds)}, params{"variant": "bogus"}); err == nil {
		t.Fatal("want error for unknown variant")
	}
}

func TestModelOpValidatesEagerly(t *testing.T) {
	if _, err := opModel(nil, nil, params{"model_type": "not_a_model"}); err == nil {
		t.Fatal("want error for unknown model type")
	}
	for _, mt := range ModelTypes() {
		if _, err := opModel(nil, nil, params{"model_type": mt}); err != nil {
			t.Errorf("model %s: %v", mt, err)
		}
	}
}

func TestSampleDeterministicAndSorted(t *testing.T) {
	f := NewFrame(100)
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	f.AddF("v", vals)
	ctx := &opCtx{stream: oneChunk(), seed: 5, state: make([]any, 1)}
	a, err := opSample(ctx, []Value{f}, params{"n": 10.0})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := opSample(&opCtx{stream: oneChunk(), seed: 5, state: make([]any, 1)}, []Value{f}, params{"n": 10.0})
	af, bf := a.(*Frame), b.(*Frame)
	if af.N != 10 || bf.N != 10 {
		t.Fatalf("sample sizes %d/%d", af.N, bf.N)
	}
	for i := 0; i < 10; i++ {
		if af.Col("v").F[i] != bf.Col("v").F[i] {
			t.Fatal("sampling not deterministic")
		}
		if i > 0 && af.Col("v").F[i] < af.Col("v").F[i-1] {
			t.Fatal("sample not in row order")
		}
	}
}

func TestDropConstAndDropCorrelated(t *testing.T) {
	f := NewFrame(50)
	a := make([]float64, 50)
	b := make([]float64, 50)
	c := make([]float64, 50)
	rng := mlkit.NewRNG(1)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = 2 * a[i] // perfectly correlated
		c[i] = 7        // constant
	}
	f.AddF("a", a)
	f.AddF("b", b)
	f.AddF("c", c)

	ctx := &opCtx{stream: oneChunk(), mode: ModeTrain, outName: "d", state: make([]any, 1)}
	out, err := opDropConst(ctx, []Value{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if names := out.(*Frame).Names(); len(names) != 2 {
		t.Fatalf("drop_const kept %v, want [a b]", names)
	}
	ctx2 := &opCtx{stream: oneChunk(), mode: ModeTrain, outName: "e", state: make([]any, 1)}
	out2, err := opDropCorrelated(ctx2, []Value{out.(*Frame)}, params{})
	if err != nil {
		t.Fatal(err)
	}
	if names := out2.(*Frame).Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("drop_correlated kept %v, want [a]", names)
	}
}
