package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// StreamStats describes the most recent RunStream execution of an
// engine: how it ran and where its time and memory went.
type StreamStats struct {
	// Chunks is the number of chunks pulled from the source.
	Chunks int
	// Pipelined reports a depth above 0 (source and ops goroutines ran
	// ahead of the sink); Depth is that depth, always the one the
	// StreamConfig asked for.
	Pipelined bool
	Depth     int
	// Workers and Shards are vestigial: the ops stage is one goroutine,
	// so Workers always reads 1, and the sink is never partitioned, so
	// Shards reads 0 at depth 0 and 1 staged. Like LazyViews they survive
	// because the benchmark harness compares them; dropping them belongs
	// to a benchmark PR.
	Workers int
	Shards  int
	// PeakInFlightBytes is the high-water mark of wire bytes decoded but
	// not yet released by the sink — the pass's actual buffering, bounded
	// by O(Depth) chunks. Zero at depth 0.
	PeakInFlightBytes int64
	// SourceStallNS / OpsStallNS / SinkStallNS are the cumulative times
	// each stage spent blocked on its neighbours: the source handing
	// chunks to a full queue, the ops goroutine waiting for the source,
	// and the sink waiting for the next prepared chunk. Zero at depth 0.
	SourceStallNS int64
	OpsStallNS    int64
	SinkStallNS   int64
	// HWMBytes is the live-heap high-water mark sampled as each chunk,
	// block of closed flows and the drain pass is absorbed (the
	// lumen_stream_hwm_bytes gauge).
	HWMBytes uint64
	// LazyViews is vestigial and always true: every source emits lazy
	// PacketView chunks and the packet ops fill frame columns straight
	// from them. It survives because the benchmark harness asserts it;
	// dropping it belongs to a benchmark PR.
	LazyViews bool
	// DriftEvents counts the detections raised by drift_detect ops over
	// the whole pass.
	DriftEvents int
}

// run feeds the ordered sink. Every chunk takes the same three steps in
// stream order: the source cuts it, prepare builds its job and runs the
// plan's worker ops, and sinkChunk runs the ordered ops. At depth 0 the
// three run in turn on the caller's goroutine. At depth d > 0 the first
// two run ahead of the sink:
//
//	source (Pump goroutine)    src.Next
//	   │  chan NumberedChunk, cap = d
//	ops (one goroutine)        prepare: newJob, worker ops
//	   │  chan *chunkJob, cap = d
//	sink (caller's goroutine)  sinkChunk: flow sinks, ordered ops,
//	                           absorb, hooks, blocks of closed flows
//
// Chunks never leave stream order, so every depth is bit-identical to the
// whole-trace pass, and a staged pass holds at most 2d + 3 chunks in flight. One
// deferred unwind covers every exit of the loop — an op or hook error, a
// source error, a panic on the sink — so no stage goroutine outlives the
// pass and every chunk is released exactly once.
func (r *streamExec) run(src dataset.Source, cfg StreamConfig) (*EvalResult, error) {
	// Reading a capture truncated under its mapping faults. On every
	// stage goroutine, the caller's for the length of the pass, that is a
	// panic the unwind handles, not a SIGBUS that kills the process.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	e, depth := r.e, max(cfg.PipelineDepth, 0)
	e.LastStream = StreamStats{Pipelined: depth > 0, Depth: depth, Workers: 1, Shards: min(depth, 1), LazyViews: true}

	next := func() *chunkJob {
		ck, ok := src.Next(cfg.ChunkRows, cfg.ChunkBytes)
		if !ok {
			return nil
		}
		// Every earlier chunk has been absorbed: nChunks is this one's Seq.
		return r.prepare(dataset.NumberedChunk{Seq: r.nChunks, Chunk: ck}, e.Span)
	}
	rec, _ := src.(dataset.Recycler)
	release := func(nc dataset.NumberedChunk) {
		if rec != nil {
			rec.Recycle(nc.Chunk)
		}
		// The backing-resource reference goes after recycling, as in
		// Pump.Done.
		nc.ReleaseRef()
	}
	srcErr := func() error {
		if es, ok := src.(interface{ Err() error }); ok {
			return es.Err()
		}
		return nil
	}
	sinkSpan, stop := e.Span, func() {}
	if depth > 0 {
		pump := dataset.StartPump(src, dataset.PumpConfig{MaxRows: cfg.ChunkRows, MaxBytes: cfg.ChunkBytes, Depth: depth})
		jobs := make(chan *chunkJob, depth)
		done := make(chan struct{}) // closed by stop: the ops goroutine hands nothing more on
		// Stage spans render on their own tracks: the caller's + 1 is the
		// source, + 2 the ops goroutine; the sink stays on the caller's.
		var srcSpan, opsSpan *obs.Span
		if sp := e.Span; sp != nil {
			srcSpan, opsSpan, sinkSpan = sp.ChildOn("stage:source", sp.TID()+1), sp.ChildOn("stage:ops", sp.TID()+2), sp.Child("stage:sink")
		}
		var gDecoded, gProcessed *obs.Gauge
		if m := e.Metrics; m != nil {
			const help = "Chunks queued between pipeline stages of the most recent streaming run."
			gDecoded = m.Gauge("lumen_stage_queue_depth", help, "queue", "decoded")
			gProcessed = m.Gauge("lumen_stage_queue_depth", help, "queue", "processed")
		}
		// opsStallNS is written by the ops goroutine only, and read once
		// jobs has closed.
		var opsStallNS, sinkStallNS int64
		go func() {
			defer close(jobs)
			debug.SetPanicOnFault(true) // as on the caller's goroutine, see above
			for {
				t0 := time.Now()
				nc, ok := <-pump.C
				if !ok {
					// Observing the close is not a stalled hand-off.
					return
				}
				opsStallNS += time.Since(t0).Nanoseconds()
				// prepare turns an op's panic into the job's error: nothing
				// raised here escapes this goroutine.
				job := r.prepare(nc, opsSpan)
				select {
				case jobs <- job:
				case <-done:
					pump.Done(nc)
					return
				}
			}
		}()
		next = func() *chunkJob {
			t0 := time.Now()
			job, ok := <-jobs
			if !ok {
				return nil
			}
			sinkStallNS += time.Since(t0).Nanoseconds()
			if gDecoded != nil {
				gDecoded.Set(float64(len(pump.C)))
				gProcessed.Set(float64(len(jobs)))
			}
			return job
		}
		release, srcErr = pump.Done, pump.Err
		// The staged unwind: the pump stops cutting, the ops goroutine stops
		// handing jobs on, and every chunk still queued in either channel is
		// released. Both goroutines have finished once both channels have
		// closed, and the stages' stats are final.
		stop = func() {
			pump.Stop()
			close(done)
			for job := range jobs {
				pump.Done(job.nc)
			}
			for nc := range pump.C {
				pump.Done(nc)
			}
			ps := pump.Stats()
			if e.Span != nil {
				srcSpan.Set("chunks", ps.Chunks)
				srcSpan.Set("stall_ns", ps.StallNS)
				srcSpan.Set("peak_inflight_bytes", ps.PeakInFlightBytes)
				srcSpan.End()
				opsSpan.End()
				sinkSpan.Set("stall_ns", sinkStallNS)
				sinkSpan.End()
			}
			ls := &e.LastStream
			ls.PeakInFlightBytes, ls.SourceStallNS, ls.OpsStallNS, ls.SinkStallNS = ps.PeakInFlightBytes, ps.StallNS, opsStallNS, sinkStallNS
			if e.Metrics != nil {
				const help = "Cumulative seconds each pipeline stage of the most recent streaming run spent blocked on its neighbours."
				e.Metrics.Gauge("lumen_stage_stall_seconds", help, "stage", "source").Set(float64(ps.StallNS) / 1e9)
				e.Metrics.Gauge("lumen_stage_stall_seconds", help, "stage", "ops").Set(float64(opsStallNS) / 1e9)
				e.Metrics.Gauge("lumen_stage_stall_seconds", help, "stage", "sink").Set(float64(sinkStallNS) / 1e9)
			}
		}
	}

	err := func() error {
		clean := false
		defer func() {
			// A failed pass reads no further: a source that can be drained
			// (every lumend source can) is, so a Next blocked waiting for
			// data that may never come (an idle capture directory or
			// feed) returns and the unwind does not wait on it.
			if d, ok := src.(interface{ Drain() }); ok && !clean {
				d.Drain()
			}
			stop()
		}()
		for job := next(); job != nil; job = next() {
			if err := r.sinkChunk(job, sinkSpan, release); err != nil {
				return err
			}
		}
		clean = true
		return nil
	}()
	// The sink's first failure and the source's own can both be in play:
	// report both.
	if se := srcErr(); se != nil {
		err = errors.Join(err, fmt.Errorf("core: packet source: %w", se))
	}
	if err != nil {
		return nil, err
	}
	return r.finish()
}
