package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// refFlowVector is computeFlowVector as it was before it wrote a flat
// array: a name-keyed map built per flow from the member packets' full
// summaries. Kept as the reference flow_features' columns must match bit
// for bit.
func refFlowVector(fl *Flows, sums func(pi int) netpkt.PacketSummary, i int, idx []int, firstN int) map[string]float64 {
	out := make(map[string]float64, len(flowFeatureNames))
	if len(idx) == 0 {
		return out
	}
	lens := make([]float64, 0, len(idx))
	iats := make([]float64, 0, len(idx))
	var prevT float64
	var payload float64
	var flags [6]float64
	var flagChanges int
	var prevFlags uint8
	first := sums(idx[0])
	last := first
	for k, pi := range idx {
		s := sums(pi)
		last = s
		t := float64(s.Ts.UnixNano()) / 1e9
		l := float64(s.Wire)
		lens = append(lens, l)
		if k > 0 {
			iats = append(iats, t-prevT)
		}
		prevT = t
		payload += float64(s.PayloadLen)
		if s.HasTCP {
			fs := s.TCPFlags
			for b := 0; b < 6; b++ {
				if fs&(1<<uint(b)) != 0 {
					flags[b]++
				}
			}
			if k > 0 && fs != prevFlags {
				flagChanges++
			}
			prevFlags = fs
		}
	}
	dur := float64(last.Ts.Sub(first.Ts)) / float64(time.Second)
	out["duration"] = dur
	out["pkt_count"] = float64(len(idx))
	var bytes float64
	for _, l := range lens {
		bytes += l
	}
	out["byte_count"] = bytes
	out["payload_bytes"] = payload
	out["mean_len"] = mlkit.Mean(lens)
	out["std_len"] = math.Sqrt(mlkit.Variance(lens))
	mn, mx := lens[0], lens[0]
	for _, l := range lens {
		if l < mn {
			mn = l
		}
		if l > mx {
			mx = l
		}
	}
	out["min_len"] = mn
	out["max_len"] = mx
	out["mean_iat"] = mlkit.Mean(iats)
	out["std_iat"] = math.Sqrt(mlkit.Variance(iats))
	if dur > 0 {
		out["pps"] = float64(len(idx)) / dur
		out["bps"] = bytes / dur
	}
	out["syn_count"] = flags[1]
	out["ack_count"] = flags[4]
	out["fin_count"] = flags[0]
	out["rst_count"] = flags[2]
	out["psh_count"] = flags[3]
	out["urg_count"] = flags[5]
	if len(idx) > 1 {
		out["flag_change_rate"] = float64(flagChanges) / float64(len(idx)-1)
	}

	c := fl.Flows[i]
	tuple := c.Tuple
	if fl.Granularity == dataset.ConnectionG {
		out["orig_bytes"] = float64(c.OrigBytes)
		out["resp_bytes"] = float64(c.RespBytes)
		var orig int
		for _, pi := range idx {
			if sums(pi).Tuple == c.Tuple {
				orig++
			}
		}
		out["orig_pkts"] = float64(orig)
		out["resp_pkts"] = float64(len(idx) - orig)
		if c.RespBytes > 0 {
			out["byte_ratio"] = float64(c.OrigBytes) / float64(c.RespBytes)
		} else {
			out["byte_ratio"] = float64(c.OrigBytes)
		}
		switch c.State {
		case flow.StateS0:
			out["state_s0"] = 1
		case flow.StateSF:
			out["state_sf"] = 1
		case flow.StateREJ:
			out["state_rej"] = 1
		case flow.StateRSTO, flow.StateRSTR:
			out["state_rst"] = 1
		default:
			out["state_oth"] = 1
		}
	}
	out["src_port"] = float64(tuple.SrcPort)
	out["dst_port"] = float64(tuple.DstPort)
	out["proto"] = float64(tuple.Proto)
	if tuple.DstPort < 1024 {
		out["dst_port_wellknown"] = 1
	}
	switch tuple.DstPort {
	case 80, 8080:
		out["svc_http"] = 1
	case 443, 8443:
		out["svc_tls"] = 1
	case 53:
		out["svc_dns"] = 1
	case 23, 2323:
		out["svc_telnet"] = 1
	case 22:
		out["svc_ssh"] = 1
	case 1883, 8883:
		out["svc_mqtt"] = 1
	case 123:
		out["svc_ntp"] = 1
	default:
		out["svc_other"] = 1
	}
	limit := firstN
	if limit > len(lens) {
		limit = len(lens)
	}
	fl1 := lens[:limit]
	out["first_n_mean_len"] = mlkit.Mean(fl1)
	out["first_n_std_len"] = math.Sqrt(mlkit.Variance(fl1))
	li := limit - 1
	if li > len(iats) {
		li = len(iats)
	}
	if li > 0 {
		fi := iats[:li]
		out["first_n_mean_iat"] = mlkit.Mean(fi)
		out["first_n_std_iat"] = math.Sqrt(mlkit.Variance(fi))
	}
	return out
}

// refFlowColumns is the whole catalogue over fl, one column per feature,
// from the reference vector fed the dataset's materialized packets that
// the membership oracle finds in each flow.
func refFlowColumns(fl *Flows, ds *dataset.Labeled, firstN int) [][]float64 {
	cols := make([][]float64, len(flowFeatureNames))
	for j := range cols {
		cols[j] = make([]float64, fl.Len())
	}
	sums := func(pi int) netpkt.PacketSummary { return summaryOf(ds, pi) }
	for i, members := range refMembers(ds, fl) {
		fv := refFlowVector(fl, sums, i, members, firstN)
		for j, name := range flowFeatureNames {
			cols[j][i] = fv[name]
		}
	}
	return cols
}

// keptStats counts the member stats fl's flows hold.
func keptStats(fl *Flows) int {
	n := 0
	for i := 0; i < fl.Len(); i++ {
		n += len(fl.Flows[i].Stats)
	}
	return n
}

// tuplePackets counts the packets of ds that have a five-tuple: every one
// belongs to exactly one flow.
func tuplePackets(ds *dataset.Labeled) int {
	n := 0
	for i := range ds.Packets {
		if summaryOf(ds, i).HasTuple {
			n++
		}
	}
	return n
}

func flowFeaturePipeline(gran string, featParams map[string]any) *Pipeline {
	return &Pipeline{
		Name:        "flow-features-" + gran,
		Granularity: gran,
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "flows", Params: map[string]any{"granularity": gran}},
			{Func: "flow_features", Input: []string{"flows"}, Output: "X", Params: featParams},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 2}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

// streamedFlowFrame runs p over ds chunk rows at a time through the
// stream loop at depth 0 (flow sink, retained stats, flush-time barrier) and
// returns the flows and the feature frame the flush pass produced.
func streamedFlowFrame(t testing.TB, p *Pipeline, ds *dataset.Labeled, chunk int, m *obs.Metrics) (*Flows, *Frame) {
	t.Helper()
	e := NewEngine(p)
	e.Metrics = m
	src := dataset.NewSliceSource(ds)
	cfg := StreamConfig{ChunkRows: chunk}
	r, err := newStreamExec(e, src, ModeTrain, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keep every flush value for inspection: no dead-value elimination.
	r.free = make([][]int, len(p.Ops))
	if _, err := r.run(src, cfg); err != nil {
		t.Fatal(err)
	}
	// flowFeaturePipeline's flows and X are ops 0 and 1.
	return r.fenv[0].(*Flows), r.fenv[1].(*Frame)
}

func frameCols(fr *Frame) [][]float64 {
	cols := make([][]float64, len(fr.Cols))
	for j := range fr.Cols {
		cols[j] = fr.Cols[j].F
	}
	return cols
}

// TestFlowFeaturesMatchMapOracle: every flow_features column, computed
// batch and streamed at chunk sizes 1, 64 and 512, equals the map-built
// reference bit for bit on every flow-granularity registry dataset, for
// uniflows and connections; labels and attacks ride along.
func TestFlowFeaturesMatchMapOracle(t *testing.T) {
	for _, spec := range dataset.Registry() {
		if spec.Granularity == dataset.Packet {
			continue
		}
		ds := spec.Generate(1)
		for _, gran := range []string{"uniflow", "connection"} {
			p := flowFeaturePipeline(gran, nil)
			fl, err := refFlowAssemble(ds, p.Ops[0].Params)
			if err != nil {
				t.Fatal(err)
			}
			bv, err := opFlowFeatures(nil, []Value{fl}, nil)
			if err != nil {
				t.Fatal(err)
			}
			batch := bv.(*Frame)
			if fl.Len() == 0 {
				t.Fatalf("%s %s: no flows", spec.ID, gran)
			}
			want := refFlowColumns(fl, ds, 100)
			sameBits(t, spec.ID+" "+gran+" batch", frameCols(batch), want)
			for _, chunk := range []int{1, 64, 512} {
				what := spec.ID + " " + gran + " streamed"
				sfl, fr := streamedFlowFrame(t, p, ds, chunk, nil)
				if kept := keptStats(sfl); kept != tuplePackets(ds) {
					t.Fatalf("%s: the flows kept %d member stats, the trace has %d packets with a tuple", what, kept, tuplePackets(ds))
				}
				sameBits(t, what, frameCols(fr), want)
				for i := range batch.Labels {
					if fr.Labels[i] != batch.Labels[i] || fr.Attacks[i] != batch.Attacks[i] {
						t.Fatalf("%s: flow %d labelled %d %q, batch %d %q", what, i, fr.Labels[i], fr.Attacks[i], batch.Labels[i], batch.Attacks[i])
					}
				}
			}
		}
	}
}

// TestFlowFeaturesFirstN: a first_n below a flow's length changes the
// first-N columns exactly as the reference's slicing does.
func TestFlowFeaturesFirstN(t *testing.T) {
	f1, _ := dataset.Get("F1")
	ds := f1.Generate(0.2)
	for _, firstN := range []int{1, 2, 3} {
		p := flowFeaturePipeline("connection", map[string]any{"first_n": firstN})
		fl, fr := streamedFlowFrame(t, p, ds, 64, nil)
		sameBits(t, "first_n", frameCols(fr), refFlowColumns(fl, ds, firstN))
	}
}

// TestFlowParamsRejected: templates whose flow params cannot work fail
// the type-check (and the ops themselves), not the barrier at the end of
// the stream.
func TestFlowParamsRejected(t *testing.T) {
	for name, bad := range map[string]map[string]any{
		"unknown feature":   {"features": []any{"duration", "durration"}},
		"duplicate feature": {"features": []any{"duration", "pps", "duration"}},
		"first_n -1":        {"first_n": -1},
		"first_n 0":         {"first_n": 0},
	} {
		p := flowFeaturePipeline("connection", bad)
		if err := NewEngine(p).Check(); err == nil || !strings.Contains(err.Error(), "flow_features: ") {
			t.Errorf("%s: type-check returned %v, want a flow_features error", name, err)
		}
		if _, err := opFlowFeatures(nil, []Value{&Flows{}}, bad); err == nil {
			t.Errorf("%s: the op accepted %v", name, bad)
		}
	}
	for name, bad := range map[string]any{"negative": -5.0, "NaN": math.NaN(), "past a Duration": 1e300, "below a nanosecond": 1e-10} {
		p := flowFeaturePipeline("connection", nil)
		p.Ops[0].Params["idle_timeout"] = bad
		if err := NewEngine(p).Check(); err == nil || !strings.Contains(err.Error(), "flow_assemble: idle_timeout") {
			t.Errorf("idle_timeout %s: type-check returned %v, want a flow_assemble idle_timeout error", name, err)
		}
	}
	for name, good := range map[string]params{"unset": {}, "zero": {"idle_timeout": 0}, "half a second": {"idle_timeout": 0.5}} {
		if _, _, err := flowParams(good); err != nil {
			t.Errorf("idle_timeout %s: %v", name, err)
		}
	}
	if opts, _, _ := flowParams(params{"idle_timeout": 0.5}); opts.IdleTimeout != 500*time.Millisecond {
		t.Errorf("idle_timeout 0.5 decodes to %v", opts.IdleTimeout)
	}
}

// TestFlowSinkMetrics: a streaming flow sink reports its open flows and
// what it evicted mid-stream, and the two add up to the flows it emits.
func TestFlowSinkMetrics(t *testing.T) {
	f1, _ := dataset.Get("F1")
	ds := f1.Generate(1)
	m := obs.NewMetrics()
	p := flowFeaturePipeline("connection", nil)
	p.Ops[0].Params["idle_timeout"] = 0.5
	fl, _ := streamedFlowFrame(t, p, ds, 64, m)
	open := m.Gauge("lumen_flow_open", "", "output", "flows").Value()
	evicted := m.Counter("lumen_flow_evicted_total", "", "output", "flows").Value()
	if evicted == 0 || open == 0 {
		t.Fatalf("open %v, evicted %d: want both non-zero on a trace that idles flows out", open, evicted)
	}
	if int(open)+int(evicted) != fl.Len() {
		t.Fatalf("open %v + evicted %d != %d flows emitted", open, evicted, fl.Len())
	}
}

// TestComputeFlowVectorAllocs: with warm scratch a flow's vector costs no
// allocation.
func TestComputeFlowVectorAllocs(t *testing.T) {
	f1, _ := dataset.Get("F1")
	ds := f1.Generate(0.5)
	for _, gran := range []string{"uniflow", "connection"} {
		fl, _ := streamedFlowFrame(t, flowFeaturePipeline(gran, nil), ds, 512, nil)
		var sc flowScratch
		all := func() {
			for i := 0; i < fl.Len(); i++ {
				computeFlowVector(&sc, fl, i, 100)
			}
		}
		all()
		if n := testing.AllocsPerRun(5, all); n != 0 {
			t.Errorf("%s: %v allocations per pass over %d flows with warm scratch", gran, n, fl.Len())
		}
	}
}

// BenchmarkFlowFeatures prices the flush-time feature pass per flow over
// the member stats a stream's flows kept: labels, the 45-feature vector,
// column writes.
func BenchmarkFlowFeatures(b *testing.B) {
	f1, _ := dataset.Get("F1")
	fl, _ := streamedFlowFrame(b, flowFeaturePipeline("connection", nil), f1.Generate(10), 512, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := opFlowFeatures(nil, []Value{fl}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fl.Len()), "ns/flow")
}
