package core

import (
	"fmt"

	"lumen/internal/dataset"
	"lumen/internal/flow"
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
// assemblers over the dataset's packets, and the member-packet stats
// flow_features reads taken straight from them.
func refFlowAssemble(ds *dataset.Labeled, p params) (*Flows, error) {
	opts, gran, err := flowParams(p)
	if err != nil {
		return nil, err
	}
	stats := &pktStats{}
	for i := range ds.Packets {
		sum := ds.Packets[i].Summary()
		st := statOf(&sum)
		if i < len(ds.Labels) && ds.Labels[i] != 0 {
			name := ""
			if i < len(ds.Attacks) {
				name = ds.Attacks[i]
			}
			st.attack = stats.attackID(name)
		}
		stats.add(st)
	}
	out := &Flows{Granularity: gran, stats: stats}
	if gran == dataset.UniflowG {
		out.Unis = flow.Uniflows(ds.Packets, opts)
	} else {
		out.Conns = flow.Connections(ds.Packets, opts)
	}
	return out, nil
}

// oneChunk is the stream context of an op called directly in a test: the
// first chunk of an offline pass.
func oneChunk() *streamCtx { return &streamCtx{carry: map[string]any{}} }

// chunkCtx is the context of a packet op called directly in a test.
func chunkCtx() *opCtx { return &opCtx{stream: oneChunk()} }
