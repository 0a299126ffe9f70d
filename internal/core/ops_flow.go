package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
)

func init() {
	register("flow_assemble", "group packets into uniflows or bidirectional connections (Zeek-style, idle-timeout split)",
		opSig{in: []Kind{KindPackets}, out: KindFlows},
		opTraits{class: classFlowSink, decode: headers, cacheable: true}, opFlowAssemble)
	register("flow_features", "compute per-flow features (sizes, inter-arrivals, flags, states, services, first-N stats)",
		opSig{in: []Kind{KindFlows}, out: KindFrame},
		opTraits{class: classBarrier, cacheable: true}, opFlowFeatures)
}

// flowParams decodes flow_assemble's parameters; shared between the
// batch op and the streaming flow sink so both split flows identically.
func flowParams(p params) (flow.Options, dataset.Granularity, error) {
	opts := flow.Options{}
	if to := p.f64("idle_timeout", 0); to > 0 {
		opts.IdleTimeout = time.Duration(to * float64(time.Second))
	}
	switch g := p.str("granularity", "connection"); g {
	case "uniflow":
		return opts, dataset.UniflowG, nil
	case "connection":
		return opts, dataset.ConnectionG, nil
	default:
		return opts, 0, fmt.Errorf("flow_assemble: unknown granularity %q", g)
	}
}

func opFlowAssemble(_ *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	opts, gran, err := flowParams(p)
	if err != nil {
		return nil, err
	}
	out := &Flows{DS: pk.DS, Granularity: gran}
	if gran == dataset.UniflowG {
		out.Unis = flow.Uniflows(pk.DS.Packets, opts)
	} else {
		out.Conns = flow.Connections(pk.DS.Packets, opts)
	}
	return out, nil
}

// flowFeatureNames is the per-flow feature catalogue.
var flowFeatureNames = []string{
	"duration", "pkt_count", "byte_count", "payload_bytes",
	"mean_len", "std_len", "min_len", "max_len",
	"mean_iat", "std_iat", "pps", "bps",
	"syn_count", "ack_count", "fin_count", "rst_count", "psh_count", "urg_count",
	"flag_change_rate",
	"src_port", "dst_port", "proto", "dst_port_wellknown",
	"orig_bytes", "resp_bytes", "orig_pkts", "resp_pkts", "byte_ratio",
	"state_s0", "state_sf", "state_rej", "state_rst", "state_oth",
	"svc_http", "svc_tls", "svc_dns", "svc_telnet", "svc_ssh", "svc_mqtt", "svc_ntp", "svc_other",
	"first_n_mean_len", "first_n_std_len", "first_n_mean_iat", "first_n_std_iat",
}

// FlowFeatures returns the supported per-flow feature names.
func FlowFeatures() []string { return append([]string(nil), flowFeatureNames...) }

func opFlowFeatures(_ *opCtx, in []Value, p params) (Value, error) {
	fl, ok := in[0].(*Flows)
	if !ok {
		return nil, fmt.Errorf("flow_features: expected flows, got %v", in[0].Kind())
	}
	want := p.strList("features")
	if len(want) == 0 {
		want = flowFeatureNames
	}
	known := map[string]bool{}
	for _, f := range flowFeatureNames {
		known[f] = true
	}
	for _, f := range want {
		if !known[f] {
			return nil, fmt.Errorf("flow_features: unknown feature %q", f)
		}
	}
	firstN := p.i("first_n", 100)

	n := fl.Len()
	fr := NewFrame(n)
	fr.Unit = UnitFlow
	fr.UnitIdx = make([]int, n)
	fr.Labels = make([]int, n)
	fr.Attacks = make([]string, n)
	cols := map[string][]float64{}
	for _, f := range want {
		cols[f] = make([]float64, n)
	}
	// Per-flow vectors are independent: compute them on a worker pool
	// (the map-reduce parallelism the paper gets from Ray).
	ds := fl.DS
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
			for i := lo; i < hi; i++ {
				fr.UnitIdx[i] = i
				idx := fl.PacketIdx(i)
				fr.Labels[i], fr.Attacks[i] = flowLabel(ds, idx)
				fv := computeFlowVector(fl, i, idx, firstN)
				for name, col := range cols {
					col[i] = fv[name]
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	for _, f := range want {
		fr.AddF(f, cols[f])
	}
	return fr, nil
}

// flowLabel derives a flow's ground truth: malicious if any member packet
// is (datasets label whole flows, so members agree by construction), with
// the attack name taken from the first malicious packet. Unlabeled
// sources (pcap captures, live feeds) yield benign.
func flowLabel(ds *dataset.Labeled, idx []int) (int, string) {
	for _, pi := range idx {
		if pi < len(ds.Labels) && ds.Labels[pi] != 0 {
			if pi < len(ds.Attacks) {
				return 1, ds.Attacks[pi]
			}
			return 1, ""
		}
	}
	return 0, ""
}

// computeFlowVector builds every catalogue feature for flow i. Per-packet
// fields are read through Flows.summary so the same code serves a batch
// run's decoded packets and a streaming run's retained summaries.
func computeFlowVector(fl *Flows, i int, idx []int, firstN int) map[string]float64 {
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
	first := fl.summary(idx[0])
	last := first
	for k, pi := range idx {
		s := fl.summary(pi)
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

	var tuple netpkt.FiveTuple
	if fl.Granularity == dataset.UniflowG {
		tuple = fl.Unis[i].Tuple
	} else {
		c := fl.Conns[i]
		tuple = c.Tuple
		out["orig_bytes"] = float64(c.OrigBytes)
		out["resp_bytes"] = float64(c.RespBytes)
		out["orig_pkts"] = float64(len(c.OrigIdx))
		out["resp_pkts"] = float64(len(c.RespIdx))
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

	// First-N-packet statistics (the OCSVM A07 feature design: lengths
	// and inter-arrival times of the first hundred packets).
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
