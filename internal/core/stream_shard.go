package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/obs"
)

// Flow-sharded sink. When StreamConfig.Shards > 1, the pipeline's sink
// stage splits into three roles so stateful per-flow work runs
// concurrently without giving up bit-identical results:
//
//	router (caller goroutine)  reorders jobs by sequence, runs the
//	                           ordered ops whose carry state spans flows
//	                           (Kitsune folds, global inter-arrival
//	                           times), hashes each packet's
//	                           direction-normalized five-tuple to a lane
//	                           and dispatches the job to every lane
//	shard lanes (K goroutines) each owns its flow assemblers, streamCtx
//	                           and a model-scratch replica; lane k feeds
//	                           its assemblers only the packets hashed to
//	                           k and scores only the frame rows whose
//	                           packets hashed to k
//	merger (goroutine)         waits for all lanes to finish a job (in
//	                           stream order), stitches the per-lane
//	                           verdicts back into packet order, and
//	                           absorbs the job into the run
//
// Determinism rule: a lane only ever receives work that is a function of
// its own flows (assembly) or of single rows (scoring through a fitted,
// read-only model), so the partition cannot change any output value —
// only where it is computed. The merger reassembles verdicts by original
// row index and the flush merges per-lane flow logs back into canonical
// (first-packet time, tuple) order, so EvalResult and conn-logs are
// bit-identical to Shards=1. Anything that would break that rule
// (cross-flow carry) never leaves the router.
type shardRun struct {
	r    *streamExec
	pump *dataset.Pump
	done chan struct{}

	lanes []*shardLane
	merge chan *chunkJob

	// laneOp is the single lane-eligible op index (-1 when none): the
	// engine rejects multiple train ops, so at most one op scores on the
	// lanes. lanePick is the corresponding one-op pick mask, proba
	// whether its classifier reports probability scores, shared the
	// fitted value every stitched job publishes to its env.
	laneOp   int
	lanePick []bool
	proba    bool
	shared   Value

	laneWG  sync.WaitGroup
	mergeWG sync.WaitGroup
	// aborted flips once the merger hit the first in-order error; the
	// router stops dispatching and the lanes stop working. firstErr and
	// mergeStallNS are merger-owned until the goroutines are joined.
	aborted      atomic.Bool
	firstErr     error
	mergeStallNS int64

	sinkSpan  *obs.Span
	mergeSpan *obs.Span
}

// shardLane is one flow-hash lane: the partition-local share of every
// stateful sink structure.
type shardLane struct {
	k     int
	in    chan *chunkJob
	sinks map[int]*flowSinkState
	sc    *streamCtx
	// state mirrors Engine.state with model-scratch replicas swapped in
	// (mlkit.ScoringReplica), so lanes score concurrently yet
	// bit-identically through the shared fitted parameters.
	state map[string]any
	span  *obs.Span

	packets int64
	rows    int64
	stallNS int64
}

// laneResult is one lane's output for one job's laned op.
type laneResult struct {
	res  *EvalResult
	err  error
	wall time.Duration
}

// laneState clones the engine's fitted-state map, replacing each trained
// model with a scoring replica that owns its inference scratch.
func laneState(e *Engine) map[string]any {
	st := make(map[string]any, len(e.state))
	for k, v := range e.state {
		if tr, ok := v.(*Trained); ok {
			st[k] = &Trained{Spec: tr.Spec, Clf: mlkit.ScoringReplica(tr.Clf)}
		} else {
			st[k] = v
		}
	}
	return st
}

// startShards builds the lanes and starts the lane and merger
// goroutines. queue bounds the merge channel (and each lane's inbox), so
// total in-flight stays O(depth + workers) jobs.
func (r *streamExec) startShards(shards, queue int, pump *dataset.Pump, done chan struct{}, sinkSpan *obs.Span, laneTID int) *shardRun {
	e := r.e
	s := &shardRun{
		r:        r,
		pump:     pump,
		done:     done,
		merge:    make(chan *chunkJob, queue),
		laneOp:   -1,
		sinkSpan: sinkSpan,
	}
	for i, isLane := range r.pl.lane {
		if isLane {
			s.laneOp = i
		}
	}
	if s.laneOp >= 0 {
		s.lanePick = make([]bool, len(e.P.Ops))
		s.lanePick[s.laneOp] = true
		op := e.P.Ops[s.laneOp]
		if tr, ok := e.state[op.Output].(*Trained); ok {
			_, s.proba = tr.Clf.(mlkit.ProbClassifier)
			s.shared = *tr
		}
	}
	for k := 0; k < shards; k++ {
		// Sink params were validated when newStreamExec built r.sinks
		// from the same plan, so this cannot fail here.
		laneSinks, _ := newFlowSinkStates(e, r.pl)
		ln := &shardLane{
			k:     k,
			in:    make(chan *chunkJob, queue),
			sinks: laneSinks,
			sc:    &streamCtx{carry: map[string]any{}},
			state: laneState(e),
		}
		if e.Span != nil {
			ln.span = e.Span.ChildOn("stage:shard", laneTID+k)
			ln.span.Set("shard", k)
		}
		s.lanes = append(s.lanes, ln)
		s.laneWG.Add(1)
		go ln.run(s)
	}
	r.lanes = s.lanes
	if e.Span != nil {
		s.mergeSpan = e.Span.ChildOn("stage:merge", laneTID+shards)
	}
	s.mergeWG.Add(1)
	go s.mergerLoop()
	return s
}

// route handles one in-order job on the router: cross-flow ordered ops,
// packet→lane hashing, row partitioning and dispatch. On plans with flow
// sinks the router also retains each packet's label and summary (in
// stream order — the lanes feed themselves, so feedSinks never runs
// here) for the flush-time flow-feature pass. Every job — even failed or
// post-abort ones — is forwarded to the merger, which owns release.
func (s *shardRun) route(j *chunkJob) {
	if j.err == nil && !s.aborted.Load() {
		if len(s.r.sinks) > 0 {
			s.r.retainForFlush(&j.nc)
		}
		if s.r.pl.nOrdered > s.r.pl.nLane {
			var cs *obs.Span
			if s.sinkSpan != nil {
				cs = s.sinkSpan.Child("chunk")
				cs.Set("base", j.nc.Base)
				cs.Set("rows", j.nc.Len())
			}
			s.r.runOps(j, s.r.pl.routerOrdered, s.r.sc, cs)
			if cs != nil {
				cs.End()
			}
		}
		if j.err == nil {
			s.dispatch(j)
		}
	}
	s.merge <- j
}

// dispatch hashes the job's packets into lanes, partitions the scoring
// frame's rows by owning packet, and hands the job to every lane. Rows
// that cannot be attributed to a packet of this chunk demote the scoring
// op to the router (global order — exactly the unsharded sink).
func (s *shardRun) dispatch(j *chunkJob) {
	K := len(s.lanes)
	j.shardIDs = j.nc.ShardIDs(K, j.shardIDs[:0])
	j.laneFrame = nil
	j.demoted = false
	if s.laneOp >= 0 {
		fr := s.laneInput(j)
		if fr == nil || !s.partition(j, fr) {
			j.demoted = true
			s.r.runOps(j, s.lanePick, s.r.sc, nil)
			if j.err != nil {
				return // route forwards the failed job to the merger
			}
		}
	}
	if cap(j.laneRes) < K {
		j.laneRes = make([]laneResult, K)
	} else {
		j.laneRes = j.laneRes[:K]
		clear(j.laneRes)
	}
	j.routed = true
	j.laneDone.Add(K)
	for _, ln := range s.lanes {
		ln.in <- j
	}
}

// laneInput returns the frame the laned op scores, nil when it is not a
// plain frame (which cannot happen for train, but demotion keeps this
// robust).
func (s *shardRun) laneInput(j *chunkJob) *Frame {
	op := s.r.e.P.Ops[s.laneOp]
	for _, name := range op.Input {
		if fr, ok := j.env[name].(*Frame); ok {
			return fr
		}
	}
	return nil
}

// partition buckets the frame's rows by the lane of their source packet
// (UnitIdx maps row → global packet index). False when any row falls
// outside this chunk.
func (s *shardRun) partition(j *chunkJob, fr *Frame) bool {
	if fr.Unit != UnitPacket || (fr.N > 0 && fr.UnitIdx == nil) {
		return false
	}
	K, n := len(s.lanes), j.nc.Len()
	if cap(j.laneRows) < K {
		j.laneRows = make([][]int, K)
	} else {
		j.laneRows = j.laneRows[:K]
	}
	for k := range j.laneRows {
		j.laneRows[k] = j.laneRows[k][:0]
	}
	for row := 0; row < fr.N; row++ {
		pi := fr.UnitIdx[row] - j.nc.Base
		if pi < 0 || pi >= n {
			return false
		}
		k := int(j.shardIDs[pi])
		j.laneRows[k] = append(j.laneRows[k], row)
	}
	j.laneFrame = fr
	return true
}

// run is a lane goroutine: drain the inbox, do the lane's share of each
// job, signal the merger. Stall only counts receives that delivered a
// job (not the close).
func (ln *shardLane) run(s *shardRun) {
	defer s.laneWG.Done()
	for {
		t0 := time.Now()
		j, ok := <-ln.in
		if !ok {
			return
		}
		ln.stallNS += time.Since(t0).Nanoseconds()
		ln.process(s, j)
		j.laneDone.Done()
	}
}

// process does lane k's share of one job: feed its packets to its flow
// assemblers, score its rows through its model replica. The assemblers
// take PacketSummary values built from the views — safe concurrently
// because the router's ShardIDs pass already decoded every view's
// headers (on the source goroutine, for sources that take the predecode
// hint) and each view element belongs to exactly one lane.
func (ln *shardLane) process(s *shardRun, j *chunkJob) {
	if s.aborted.Load() {
		return
	}
	for _, id := range j.shardIDs {
		if int(id) == ln.k {
			ln.packets++
		}
	}
	if len(ln.sinks) > 0 {
		for pi := range j.nc.Views {
			if int(j.shardIDs[pi]) != ln.k {
				continue
			}
			sum := j.nc.Views[pi].Summary()
			for _, fs := range ln.sinks {
				fs.add(j.nc.Base+pi, sum)
			}
		}
	}
	if s.laneOp >= 0 && !j.demoted && j.laneFrame != nil {
		ln.scoreRows(s, j)
	}
}

// scoreRows runs the laned op over this lane's row subset, through the
// lane's scratch replica. Wrapping matches runOps exactly so a lane
// failure surfaces the same error the sequential sink would have.
func (ln *shardLane) scoreRows(s *shardRun, j *chunkJob) {
	e := s.r.e
	i := s.laneOp
	op := e.P.Ops[i]
	rows := j.laneRows[ln.k]
	lr := &j.laneRes[ln.k]
	in := make([]Value, len(op.Input))
	for idx, name := range op.Input {
		v, ok := j.env[name]
		if !ok {
			lr.err = fmt.Errorf("core: op %d (%s): value %q was freed or never set", i, op.Func, name)
			return
		}
		if fr, isFrame := v.(*Frame); isFrame && fr == j.laneFrame {
			v = fr.TakeRows(rows)
		}
		in[idx] = v
	}
	ln.sc.base = j.nc.Base
	ctx := &opCtx{mode: s.r.mode, outName: op.Output, state: ln.state, seed: e.Seed, metrics: e.Metrics, stream: ln.sc}
	if ln.span != nil {
		ctx.span = ln.span.Child("op:" + op.Func)
		ctx.span.Set("output", op.Output)
		ctx.span.Set("rows", len(rows))
	}
	st := OpStats{Func: op.Func, Output: op.Output}
	start := time.Now()
	_, err := e.runOp(opRegistry[op.Func], ctx, op, in, &st)
	lr.wall = time.Since(start)
	// Close only the lane's span here: the op executed once logically,
	// split across K lanes, so the merger emits its single metrics sample
	// at stitch time (per-lane emission would count the op K times).
	finishOpSpan(ctx.span, &st, err)
	if err != nil {
		lr.err = fmt.Errorf("core: op %d (%s -> %s): %w", i, op.Func, op.Output, err)
		return
	}
	lr.res = ctx.result
	ln.rows += int64(len(rows))
}

// mergerLoop absorbs jobs in stream order: wait until every lane
// finished the job, stitch the per-lane verdicts back into row order,
// fold the job into the run, release it. The first in-order error stops
// the pump and unwinds the upstream stages, exactly like the unsharded
// sink.
func (s *shardRun) mergerLoop() {
	defer s.mergeWG.Done()
	for j := range s.merge {
		t0 := time.Now()
		j.laneDone.Wait()
		s.mergeStallNS += time.Since(t0).Nanoseconds()
		if s.firstErr == nil {
			s.stitch(j)
			if err := s.r.absorb(j); err != nil {
				s.firstErr = err
				s.aborted.Store(true)
				s.pump.Stop()
				close(s.done)
			}
		}
		s.pump.Done(j.nc)
	}
}

// stitch reassembles the lanes' outputs into the job, by original row
// index, reproducing exactly what the unsharded sink would have put
// there: the same EvalResult (including nil-ness of empty fields), the
// op's output value in the env, and its profile entry.
func (s *shardRun) stitch(j *chunkJob) {
	if j.err != nil || !j.routed || s.laneOp < 0 || j.demoted || j.laneFrame == nil {
		return
	}
	i := s.laneOp
	op := s.r.e.P.Ops[i]
	var wall time.Duration
	for k := range j.laneRes {
		wall += j.laneRes[k].wall
	}
	// One metrics sample per logical op execution, matching the unsharded
	// sink (which records the op even when it fails).
	defer s.r.e.opMetrics(&OpStats{Func: op.Func, Output: op.Output, Wall: wall})
	for k := range j.laneRes {
		if err := j.laneRes[k].err; err != nil {
			j.err = err
			return
		}
	}
	fr := j.laneFrame
	res := &EvalResult{
		Unit:    fr.Unit,
		Truth:   append([]int(nil), fr.Labels...),
		Attacks: append([]string(nil), fr.Attacks...),
		UnitIdx: append([]int(nil), fr.UnitIdx...),
	}
	if fr.N > 0 {
		res.Pred = make([]int, fr.N)
		if s.proba {
			res.Scores = make([]float64, fr.N)
		}
		for k := range j.laneRes {
			lr := &j.laneRes[k]
			for li, row := range j.laneRows[k] {
				res.Pred[row] = lr.res.Pred[li]
				if s.proba {
					res.Scores[row] = lr.res.Scores[li]
				}
			}
		}
	}
	j.results = append(j.results, res)
	j.env[op.Output] = s.shared
	j.stats[i] = OpStats{Func: op.Func, Output: op.Output, Wall: wall}
}

// close shuts the lanes and merger down in dependency order and returns
// the first in-order error (nil on clean runs). Called from the router
// goroutine after the last job was forwarded.
func (s *shardRun) close() error {
	for _, ln := range s.lanes {
		close(ln.in)
	}
	s.laneWG.Wait()
	close(s.merge)
	s.mergeWG.Wait()
	if s.r.e.Span != nil {
		for _, ln := range s.lanes {
			ln.span.Set("packets", ln.packets)
			ln.span.Set("rows", ln.rows)
			ln.span.Set("stall_ns", ln.stallNS)
			ln.span.End()
		}
		s.mergeSpan.Set("stall_ns", s.mergeStallNS)
		s.mergeSpan.End()
	}
	return s.firstErr
}

// finishFlows assembles the final Flows value of sink op i at flush,
// merging the per-lane partitions (sharded runs) with the direct sink
// (unsharded runs) back into canonical order.
func (r *streamExec) finishFlows(i int, s *flowSinkState) *Flows {
	out := &Flows{DS: r.flowDS, Granularity: s.gran, Sums: r.accSums}
	if s.uni != nil {
		parts := [][]*flow.Uniflow{append(s.unis, s.uni.Flush()...)}
		for _, ln := range r.lanes {
			ls := ln.sinks[i]
			parts = append(parts, append(ls.unis, ls.uni.Flush()...))
		}
		out.Unis = flow.MergeUniflows(parts...)
	} else {
		parts := [][]*flow.Connection{append(s.cons, s.conn.Flush()...)}
		for _, ln := range r.lanes {
			ls := ln.sinks[i]
			parts = append(parts, append(ls.cons, ls.conn.Flush()...))
		}
		out.Conns = flow.MergeConnections(parts...)
	}
	return out
}
