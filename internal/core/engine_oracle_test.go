package core

import (
	"fmt"
	"sort"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
)

// refRun is the batch executor the engine ran Train and Test on before
// both became whole-trace RunStream passes: every op once, in op order,
// over the materialized dataset, flow assembly included (refFlowAssemble),
// each value freed after its last reader. Kept as the reference every
// chunking and depth of a pass must match bit for bit.
func refRun(e *Engine, ds *dataset.Labeled, mode Mode) (*EvalResult, error) {
	defs, _, err := e.check()
	if err != nil {
		return nil, err
	}
	if mode == ModeTest && !e.trained {
		return nil, fmt.Errorf("core: Test before Train on pipeline %q", e.P.Name)
	}
	env := map[string]Value{InputName: newPackets(ds)}
	last := map[string]int{}
	for i, op := range e.P.Ops {
		for _, in := range op.Input {
			last[in] = i
		}
	}
	sc := &streamCtx{carry: make([]any, len(e.P.Ops))}
	var result *EvalResult
	for i, op := range e.P.Ops {
		var out Value
		if op.Func == "flow_assemble" {
			out, err = refFlowAssemble(ds, params(op.Params))
		} else {
			var drift []DriftEvent
			var res *EvalResult
			in := make([]Value, len(op.Input))
			for j, name := range op.Input {
				v, ok := env[name]
				if !ok {
					return nil, fmt.Errorf("core: op %d (%s): value %q was freed or never set", i, op.Func, name)
				}
				in[j] = v
			}
			out, _, res, err = e.invoke(i, defs[i], in, &opCtx{mode: mode, stream: sc, drift: &drift}, e.Span, nil, nil)
			if res != nil {
				result = res
			}
		}
		if err != nil {
			return nil, err
		}
		env[op.Output] = out
		for name, lu := range last {
			if lu == i {
				delete(env, name)
			}
		}
	}
	if mode == ModeTrain {
		e.trained = true
	} else if result == nil {
		return nil, fmt.Errorf("core: pipeline %q produced no predictions", e.P.Name)
	}
	return result, nil
}

// refFlowAssemble is flow_assemble as the batch executor ran it: the batch
// assemblers over the dataset's packets, each flow's member stats and
// label taken from the members the membership oracle (refMembers) finds.
func refFlowAssemble(ds *dataset.Labeled, p params) (*Flows, error) {
	opts, gran, err := flowParams(p)
	if err != nil {
		return nil, err
	}
	out := &Flows{Granularity: gran}
	asm := flow.NewConnAssembler(opts)
	if gran == dataset.UniflowG {
		asm = flow.NewUniflowAssembler(opts)
	}
	pkts := decodedPackets(ds)
	for _, p := range pkts {
		asm.Add(p)
	}
	out.Flows = asm.ReleaseAll(nil)
	var slab flow.StatSlab
	for i, members := range refMembers(ds, out) {
		var label uint32
		for _, pi := range members {
			sum := pkts[pi].Summary()
			out.Flows[i].AddStat(flow.StatOf(&sum), &slab)
			if label == 0 && pi < len(ds.Labels) && ds.Labels[pi] != 0 {
				name := ""
				if pi < len(ds.Attacks) {
					name = ds.Attacks[pi]
				}
				out.attacks = append(out.attacks, name)
				label = uint32(len(out.attacks))
			}
		}
		out.Flows[i].Label = label
	}
	return out, nil
}

// decodedPackets parses every packet of a dataset from its wire bytes.
func decodedPackets(ds *dataset.Labeled) []*netpkt.Packet {
	out := make([]*netpkt.Packet, len(ds.Packets))
	for i, p := range ds.Packets {
		out[i] = netpkt.Decode(p.Data, ds.Link, p.Ts)
	}
	return out
}

// summaryOf is packet i's flow-assembly summary, read through a view.
func summaryOf(ds *dataset.Labeled, i int) netpkt.PacketSummary {
	var v netpkt.PacketView
	v.Reset(ds.Packets[i].Data, ds.Link, ds.Packets[i].Ts)
	return v.Summary()
}

// refMembers is the membership oracle: flow i's members are the packets
// with its key (a uniflow's tuple, a connection's canonical one) whose
// timestamp falls in its [First, Last], in capture order. Idle splits of
// one key never overlap, so no assembler is needed to find them.
func refMembers(ds *dataset.Labeled, fl *Flows) [][]int {
	key := func(t netpkt.FiveTuple) netpkt.FiveTuple {
		if fl.Granularity == dataset.UniflowG {
			return t
		}
		return t.Canonical()
	}
	byKey := map[netpkt.FiveTuple][]int{}
	for i := range ds.Packets {
		if s := summaryOf(ds, i); s.HasTuple {
			byKey[key(s.Tuple)] = append(byKey[key(s.Tuple)], i)
		}
	}
	out := make([][]int, fl.Len())
	for i := range out {
		f := fl.Flows[i]
		tuple, first, last := f.Tuple, f.First, f.Last
		// A key's packets are in capture order, which is time order.
		idx := byKey[key(tuple)]
		lo := sort.Search(len(idx), func(k int) bool { return !ds.Packets[idx[k]].Ts.Before(first) })
		hi := sort.Search(len(idx), func(k int) bool { return ds.Packets[idx[k]].Ts.After(last) })
		out[i] = idx[lo:hi]
	}
	return out
}

// oneChunk is the stream context of an op called directly in a test: the
// first chunk of an offline pass.
func oneChunk() *streamCtx { return &streamCtx{carry: make([]any, 1)} }

// chunkCtx is the context of a packet op called directly in a test.
func chunkCtx() *opCtx { return &opCtx{stream: oneChunk()} }
