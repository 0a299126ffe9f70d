package core

import (
	"fmt"
	"sort"
	"time"

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
	defs, err := e.check()
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
	sc := &streamCtx{carry: map[string]any{}}
	var result *EvalResult
	for i, op := range e.P.Ops {
		var out Value
		if op.Func == "flow_assemble" {
			out, err = refFlowAssemble(ds, params(op.Params))
		} else {
			var drift []DriftEvent
			var res *EvalResult
			out, _, res, err = e.invoke(i, defs[i], env, opCtx{mode: mode, stream: sc, drift: &drift}, e.Span, "", nil)
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
	if gran == dataset.UniflowG {
		out.Unis = flow.Uniflows(ds.Packets, opts)
	} else {
		out.Conns = flow.Connections(ds.Packets, opts)
	}
	var slab flow.StatSlab
	for i, members := range refMembers(ds, out) {
		var label uint32
		for _, pi := range members {
			sum := ds.Packets[pi].Summary()
			if gran == dataset.UniflowG {
				out.Unis[i].AddStat(flow.StatOf(&sum), &slab)
			} else {
				out.Conns[i].AddStat(flow.StatOf(&sum), &slab)
			}
			if label == 0 && pi < len(ds.Labels) && ds.Labels[pi] != 0 {
				name := ""
				if pi < len(ds.Attacks) {
					name = ds.Attacks[pi]
				}
				out.attacks = append(out.attacks, name)
				label = uint32(len(out.attacks))
			}
		}
		if gran == dataset.UniflowG {
			out.Unis[i].Label = label
		} else {
			out.Conns[i].Label = label
		}
	}
	return out, nil
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
	for i, p := range ds.Packets {
		if s := p.Summary(); s.HasTuple {
			byKey[key(s.Tuple)] = append(byKey[key(s.Tuple)], i)
		}
	}
	out := make([][]int, fl.Len())
	for i := range out {
		var tuple netpkt.FiveTuple
		var first, last time.Time
		if fl.Granularity == dataset.UniflowG {
			u := fl.Unis[i]
			tuple, first, last = u.Tuple, u.First, u.Last
		} else {
			c := fl.Conns[i]
			tuple, first, last = c.Tuple, c.First, c.Last
		}
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
func oneChunk() *streamCtx { return &streamCtx{carry: map[string]any{}} }

// chunkCtx is the context of a packet op called directly in a test.
func chunkCtx() *opCtx { return &opCtx{stream: oneChunk()} }
