package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
)

func init() {
	register("flow_assemble", "group packets into uniflows or bidirectional connections (Zeek-style, idle-timeout split)",
		opSig{in: []Kind{KindPackets}, out: KindFlows},
		opTraits{class: classFlowSink, decode: headers, cacheable: true, check: checkFlowParams}, opFlowAssemble)
	register("flow_features", "compute per-flow features (sizes, inter-arrivals, flags, states, services, first-N stats)",
		opSig{in: []Kind{KindFlows}, out: KindFrame},
		opTraits{class: classBarrier, cacheable: true, check: checkFlowFeatureParams, stats: flowFeatureStats}, opFlowFeatures)
}

// AllStats is the StreamPlan.StatCap of a sink some reader of which
// takes every member stat of a flow.
const AllStats = math.MaxInt

// checkFlowParams and checkFlowFeatureParams are the two ops' type-checks:
// a template with unusable flow params is refused when it is parsed, not
// when the barrier runs at the end of the stream.
func checkFlowParams(p params) error {
	_, _, err := flowParams(p)
	return err
}

func checkFlowFeatureParams(p params) error {
	_, _, err := flowFeatureParams(p)
	return err
}

// flowParams decodes flow_assemble's parameters; shared between the flow
// sink and the op's type-check so both refuse the same templates.
func flowParams(p params) (flow.Options, dataset.Granularity, error) {
	opts := flow.Options{}
	to := p.f64("idle_timeout", 0) * float64(time.Second)
	// A positive timeout under a nanosecond would truncate to 0, which
	// reads as the default.
	if !(to == 0 || to >= 1 && to < math.MaxInt64) {
		return opts, 0, fmt.Errorf("flow_assemble: idle_timeout is %v, want a number of seconds >= 0 (0: the 64 s default)", p["idle_timeout"])
	}
	opts.IdleTimeout = time.Duration(to)
	g := p.str("granularity", "connection")
	gran, ok := dataset.ParseGranularity(g)
	if !ok || gran == dataset.Packet {
		return opts, 0, fmt.Errorf("flow_assemble: unknown granularity %q", g)
	}
	return opts, gran, nil
}

// opFlowAssemble is the flow sink run over one chunk that holds the
// whole trace: a pass the shared cache serves runs it so, and so does
// ExtractFlowFeatures. Its flows keep every member stat, since any
// pipeline the cache serves them to may read them all. Every other pass
// feeds its sinks chunk by chunk.
func opFlowAssemble(_ *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	s, err := newFlowSink(0, p, AllStats, nil, "")
	if err != nil {
		return nil, err
	}
	feedFlows([]*flowSinkState{s}, pk.Views, pk.DS.Labels, pk.DS.Attacks)
	return s.finish(), nil
}

// The per-flow feature catalogue: a feature's constant is its index in a
// flowVec and in flowFeatureNames.
const (
	fDuration = iota
	fPktCount
	fByteCount
	fPayloadBytes
	fMeanLen
	fStdLen
	fMinLen
	fMaxLen
	fMeanIAT
	fStdIAT
	fPPS
	fBPS
	fSynCount
	fAckCount
	fFinCount
	fRstCount
	fPshCount
	fUrgCount
	fFlagChangeRate
	fSrcPort
	fDstPort
	fProto
	fDstPortWellknown
	fOrigBytes
	fRespBytes
	fOrigPkts
	fRespPkts
	fByteRatio
	fStateS0
	fStateSF
	fStateREJ
	fStateRST
	fStateOTH
	fSvcHTTP
	fSvcTLS
	fSvcDNS
	fSvcTelnet
	fSvcSSH
	fSvcMQTT
	fSvcNTP
	fSvcOther
	fFirstNMeanLen
	fFirstNStdLen
	fFirstNMeanIAT
	fFirstNStdIAT
	numFlowFeatures
)

// flowFeatureNames is the catalogue in column order.
var flowFeatureNames = [numFlowFeatures]string{
	fDuration: "duration", fPktCount: "pkt_count", fByteCount: "byte_count", fPayloadBytes: "payload_bytes",
	fMeanLen: "mean_len", fStdLen: "std_len", fMinLen: "min_len", fMaxLen: "max_len",
	fMeanIAT: "mean_iat", fStdIAT: "std_iat", fPPS: "pps", fBPS: "bps",
	fSynCount: "syn_count", fAckCount: "ack_count", fFinCount: "fin_count", fRstCount: "rst_count", fPshCount: "psh_count", fUrgCount: "urg_count",
	fFlagChangeRate: "flag_change_rate",
	fSrcPort:        "src_port", fDstPort: "dst_port", fProto: "proto", fDstPortWellknown: "dst_port_wellknown",
	fOrigBytes: "orig_bytes", fRespBytes: "resp_bytes", fOrigPkts: "orig_pkts", fRespPkts: "resp_pkts", fByteRatio: "byte_ratio",
	fStateS0: "state_s0", fStateSF: "state_sf", fStateREJ: "state_rej", fStateRST: "state_rst", fStateOTH: "state_oth",
	fSvcHTTP: "svc_http", fSvcTLS: "svc_tls", fSvcDNS: "svc_dns", fSvcTelnet: "svc_telnet", fSvcSSH: "svc_ssh", fSvcMQTT: "svc_mqtt", fSvcNTP: "svc_ntp", fSvcOther: "svc_other",
	fFirstNMeanLen: "first_n_mean_len", fFirstNStdLen: "first_n_std_len", fFirstNMeanIAT: "first_n_mean_iat", fFirstNStdIAT: "first_n_std_iat",
}

// FlowFeatures returns the supported per-flow feature names.
func FlowFeatures() []string { return append([]string(nil), flowFeatureNames[:]...) }

// flowVec holds one flow's value of every catalogue feature.
type flowVec [numFlowFeatures]float64

// flowScratch is one worker's reusable state for computeFlowVector.
type flowScratch struct {
	vec        flowVec
	lens, iats []float64
}

// flowFeatureParams decodes flow_features' parameters: the catalogue
// indices of the requested columns, in order (all of them when unset),
// and first_n. Unknown and repeated names and a first_n below 1 are
// refused; it is the op's type-check and what the op itself runs on.
func flowFeatureParams(p params) (sel []int, firstN int, err error) {
	want := p.strList("features")
	if len(want) == 0 {
		want = flowFeatureNames[:]
	}
	sel = make([]int, len(want))
	var seen [numFlowFeatures]bool
	for k, name := range want {
		fi := slices.Index(flowFeatureNames[:], name)
		if fi < 0 {
			return nil, 0, fmt.Errorf("flow_features: unknown feature %q", name)
		}
		if seen[fi] {
			return nil, 0, fmt.Errorf("flow_features: feature %q listed twice", name)
		}
		seen[fi], sel[k] = true, fi
	}
	if firstN = p.i("first_n", 100); firstN < 1 {
		return nil, 0, fmt.Errorf("flow_features: first_n is %d, want at least 1", firstN)
	}
	return sel, firstN, nil
}

// counterFeature marks the catalogue features computeFlowVector takes
// from a flow's counters, tuple and state alone, never from its stats.
var counterFeature = func() (c [numFlowFeatures]bool) {
	for _, fi := range []int{fDuration, fPktCount, fByteCount, fPayloadBytes, fPPS, fBPS,
		fSrcPort, fDstPort, fProto, fDstPortWellknown, fOrigBytes, fRespBytes, fOrigPkts, fRespPkts, fByteRatio} {
		c[fi] = true
	}
	for fi := fStateS0; fi <= fSvcOther; fi++ {
		c[fi] = true
	}
	return c
}()

// flowFeatureStats is flow_features' stats trait: 0 when every selected
// feature is a counter feature, first_n when the rest are first_n_*
// features, AllStats otherwise.
func flowFeatureStats(p params) int {
	sel, firstN, err := flowFeatureParams(p)
	if err != nil {
		return AllStats
	}
	n := 0
	for _, fi := range sel {
		switch {
		case counterFeature[fi]:
		case fi >= fFirstNMeanLen:
			n = firstN
		default:
			return AllStats
		}
	}
	return n
}

// opFlowFeatures computes one row per flow. Rows are independent, so a
// pass may run it over consecutive blocks of a sink's flows as they
// close: row i of a block whose first flow is the pass's flow base gets
// unit index base + i.
func opFlowFeatures(ctx *opCtx, in []Value, p params) (Value, error) {
	fl, ok := in[0].(*Flows)
	if !ok {
		return nil, fmt.Errorf("flow_features: expected flows, got %v", in[0].Kind())
	}
	sel, firstN, err := flowFeatureParams(p)
	if err != nil {
		return nil, err
	}

	n, base := fl.Len(), 0
	var a *chunkArena
	if ctx != nil {
		base, a = ctx.stream.base, ctx.scratch.arena()
	}
	fr := NewFrame(n)
	fr.Unit = UnitFlow
	fr.UnitIdx = make([]int, n)
	fr.Labels = make([]int, n)
	fr.Attacks = make([]string, n)
	// Only the columns may come from an arena: verdicts alias the unit
	// indices, labels and attacks.
	cols := a.rows(len(sel))
	for k := range cols {
		cols[k] = a.floats(n)
	}
	// Per-flow vectors are independent: compute them on a worker pool
	// (the map-reduce parallelism the paper gets from Ray).
	workers := runtime.GOMAXPROCS(0)
	if n < 256 || workers < 2 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var sc flowScratch
			for i := lo; i < hi; i++ {
				fr.UnitIdx[i] = base + i
				fr.Labels[i], fr.Attacks[i] = fl.label(i)
				computeFlowVector(&sc, fl, i, firstN)
				for k, fi := range sel {
					cols[k][i] = sc.vec[fi]
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	for k, fi := range sel {
		fr.AddF(flowFeatureNames[fi], cols[k])
	}
	return fr, nil
}

// computeFlowVector writes every catalogue feature of flow i into sc.vec.
// Counter features come from the flow's counters, which equal what its
// members' stats would sum to exactly (integers below 2^53; First and
// Last are the first and last member's timestamps), so they hold
// whatever stats the flow kept. The rest are read from the member stats,
// of which a first_n_* feature needs the first firstN and any other
// every one. With warm scratch it allocates nothing.
func computeFlowVector(sc *flowScratch, fl *Flows, i int, firstN int) {
	out := &sc.vec
	*out = flowVec{}
	f := fl.Flows[i]
	tuple := f.Tuple
	pkts, bytes := f.OrigPkts+f.RespPkts, f.OrigBytes+f.RespBytes
	out[fPayloadBytes] = float64(f.OrigPayload + f.RespPayload)
	if fl.Granularity == dataset.ConnectionG {
		out[fOrigBytes] = float64(f.OrigBytes)
		out[fRespBytes] = float64(f.RespBytes)
		out[fOrigPkts] = float64(f.OrigPkts)
		out[fRespPkts] = float64(f.RespPkts)
		if f.RespBytes > 0 {
			out[fByteRatio] = float64(f.OrigBytes) / float64(f.RespBytes)
		} else {
			out[fByteRatio] = float64(f.OrigBytes)
		}
		switch f.State {
		case flow.StateS0:
			out[fStateS0] = 1
		case flow.StateSF:
			out[fStateSF] = 1
		case flow.StateREJ:
			out[fStateREJ] = 1
		case flow.StateRSTO, flow.StateRSTR:
			out[fStateRST] = 1
		default:
			out[fStateOTH] = 1
		}
	}
	dur := float64(f.Last.UnixNano()-f.First.UnixNano()) / float64(time.Second)
	out[fDuration] = dur
	out[fPktCount] = float64(pkts)
	out[fByteCount] = float64(bytes)
	if dur > 0 {
		out[fPPS] = float64(pkts) / dur
		out[fBPS] = float64(bytes) / dur
	}
	out[fSrcPort] = float64(tuple.SrcPort)
	out[fDstPort] = float64(tuple.DstPort)
	out[fProto] = float64(tuple.Proto)
	if tuple.DstPort < 1024 {
		out[fDstPortWellknown] = 1
	}
	switch tuple.DstPort {
	case 80, 8080:
		out[fSvcHTTP] = 1
	case 443, 8443:
		out[fSvcTLS] = 1
	case 53:
		out[fSvcDNS] = 1
	case 23, 2323:
		out[fSvcTelnet] = 1
	case 22:
		out[fSvcSSH] = 1
	case 1883, 8883:
		out[fSvcMQTT] = 1
	case 123:
		out[fSvcNTP] = 1
	default:
		out[fSvcOther] = 1
	}

	stats := f.Stats
	if len(stats) == 0 {
		return
	}
	lens, iats := sc.lens[:0], sc.iats[:0]
	var prevT float64
	var flags [6]float64
	var flagChanges int
	var prevFlags uint8
	for k := range stats {
		s := &stats[k]
		t := float64(s.UnixNano) / 1e9
		lens = append(lens, float64(s.Wire))
		if k > 0 {
			iats = append(iats, t-prevT)
		}
		prevT = t
		if s.HasTCP {
			fs := s.Flags
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
	sc.lens, sc.iats = lens, iats
	out[fMeanLen] = mlkit.Mean(lens)
	out[fStdLen] = math.Sqrt(mlkit.Variance(lens))
	mn, mx := lens[0], lens[0]
	for _, l := range lens {
		if l < mn {
			mn = l
		}
		if l > mx {
			mx = l
		}
	}
	out[fMinLen] = mn
	out[fMaxLen] = mx
	out[fMeanIAT] = mlkit.Mean(iats)
	out[fStdIAT] = math.Sqrt(mlkit.Variance(iats))
	out[fSynCount] = flags[1]
	out[fAckCount] = flags[4]
	out[fFinCount] = flags[0]
	out[fRstCount] = flags[2]
	out[fPshCount] = flags[3]
	out[fUrgCount] = flags[5]
	if n := len(stats); n > 1 {
		out[fFlagChangeRate] = float64(flagChanges) / float64(n-1)
	}

	// First-N-packet statistics (the OCSVM A07 feature design: lengths
	// and inter-arrival times of the first hundred packets).
	limit := firstN
	if limit > len(lens) {
		limit = len(lens)
	}
	fl1 := lens[:limit]
	out[fFirstNMeanLen] = mlkit.Mean(fl1)
	out[fFirstNStdLen] = math.Sqrt(mlkit.Variance(fl1))
	li := limit - 1
	if li > len(iats) {
		li = len(iats)
	}
	if li > 0 {
		fi := iats[:li]
		out[fFirstNMeanIAT] = mlkit.Mean(fi)
		out[fFirstNStdIAT] = math.Sqrt(mlkit.Variance(fi))
	}
}
