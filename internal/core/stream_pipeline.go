package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/obs"
)

// StreamStats describes the most recent RunStream execution of an
// engine: how it ran and where its time and memory went.
type StreamStats struct {
	// Chunks is the number of chunks pulled from the source.
	Chunks int
	// Pipelined reports whether the staged loop ran (false: the inline
	// loop). Depth and Workers are its shape, which is always the shape
	// the StreamConfig asked for (after its documented defaults).
	Pipelined bool
	Depth     int
	Workers   int
	// Shards is vestigial: the sink is never partitioned, so it reads 0
	// on inline runs and 1 on staged ones. Like LazyViews it survives
	// because the benchmark harness compares it; dropping it belongs to
	// a benchmark PR.
	Shards int
	// PeakInFlightBytes is the high-water mark of wire bytes decoded but
	// not yet released by the sink — the pipeline's actual buffering,
	// bounded by O(Depth + Workers) chunks. Zero on inline runs.
	PeakInFlightBytes int64
	// SourceStallNS / OpsStallNS / SinkStallNS are the cumulative times
	// each stage spent blocked on its neighbours: the source handing
	// chunks to a full queue, the op workers waiting for decode, and the
	// sink waiting for the next processed chunk.
	SourceStallNS int64
	OpsStallNS    int64
	SinkStallNS   int64
	// HWMBytes is the live-heap high-water mark sampled at chunk
	// boundaries (the lumen_stream_hwm_bytes gauge).
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

// runPipelined feeds the sink through a staged, bounded-channel
// pipeline:
//
//	source (goroutine)      decode chunks from the dataset.Source (Pump)
//	   │  chan, cap = depth
//	ops (N worker goroutines)  order-free row-local ops per chunk
//	   │  chan, cap = depth + workers
//	sink (this goroutine)   reorder by sequence, then sinkChunk: flow
//	                        sinks, carry-state ops, model scoring,
//	                        accumulation, hooks
//
// Chunks fan out to the workers and are recombined in stream order by
// the sink's reorder buffer, so results are bit-identical to the inline
// loop (and to batch). Both channels are depth-bounded and the reorder
// buffer cannot exceed the in-flight chunk count, so peak memory stays
// O((depth + workers) × chunk).
func (r *streamExec) runPipelined(src dataset.Source, cfg StreamConfig) (*EvalResult, error) {
	e := r.e
	depth, workers := cfg.depth(), cfg.workers()
	e.LastStream = StreamStats{Pipelined: true, Depth: depth, Workers: workers, Shards: 1, LazyViews: true}

	pump := dataset.StartPump(src, dataset.PumpConfig{
		MaxRows:  cfg.ChunkRows,
		MaxBytes: cfg.ChunkBytes,
		Depth:    depth,
	})

	// Stage spans render on their own tracks, next to the caller's:
	// caller track + 1 is the source, + 2 + w each op worker; the sink
	// stays on the caller's track (it is the caller's goroutine).
	var srcSpan, sinkSpan *obs.Span
	wSpans := make([]*obs.Span, workers)
	if e.Span != nil {
		t := e.Span.TID()
		srcSpan = e.Span.ChildOn("stage:source", t+1)
		for w := range wSpans {
			wSpans[w] = e.Span.ChildOn("stage:ops", t+2+w)
		}
		sinkSpan = e.Span.Child("stage:sink")
	}

	jobs := make(chan *chunkJob, depth+workers)
	done := make(chan struct{}) // closed by the sink on first error
	var opsStallNS atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stage *obs.Span) {
			defer wg.Done()
			for {
				t0 := time.Now()
				nc, ok := <-pump.C
				if !ok {
					// The final blocked receive only observed the close —
					// no chunk was delayed, so it is not stall time.
					return
				}
				opsStallNS.Add(time.Since(t0).Nanoseconds())
				job := r.newJob(nc)
				cs := chunkSpan(stage, &nc)
				r.runOps(job, r.pl.Worker, &job.wsc, cs)
				cs.End()
				select {
				case jobs <- job:
				case <-done:
					pump.Done(job.nc)
					return
				}
			}
		}(wSpans[w])
	}
	go func() {
		wg.Wait()
		close(jobs)
	}()

	// Queue-depth gauges are sampled once per absorbed chunk.
	var gDecoded, gProcessed *obs.Gauge
	if e.Metrics != nil {
		const help = "Chunks queued between pipeline stages of the most recent streaming run."
		gDecoded = e.Metrics.Gauge("lumen_stage_queue_depth", help, "queue", "decoded")
		gProcessed = e.Metrics.Gauge("lumen_stage_queue_depth", help, "queue", "processed")
	}

	var firstErr error
	var sinkStallNS int64
	pending := map[int]*chunkJob{}
	next := 0
	for {
		t0 := time.Now()
		job, ok := <-jobs
		if !ok {
			// Observing the close is not a stalled chunk hand-off.
			break
		}
		sinkStallNS += time.Since(t0).Nanoseconds()
		pending[job.nc.Seq] = job
		for {
			j, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			next++
			if gDecoded != nil {
				gDecoded.Set(float64(len(pump.C)))
				gProcessed.Set(float64(len(jobs)))
			}
			if firstErr != nil {
				pump.Done(j.nc)
				continue
			}
			if err := r.sinkChunk(j, r.pl.Ordered, sinkSpan, pump.Done); err != nil {
				// First in-order failure: identical to where the inline
				// loop would have stopped. Unwind the upstream stages; the
				// loop keeps draining so no worker stays blocked on a full
				// jobs channel.
				firstErr = err
				pump.Stop()
				close(done)
			}
		}
	}
	// Jobs whose predecessors never arrived (workers unwound early).
	for _, j := range pending {
		pump.Done(j.nc)
	}
	// On an error unwind some workers may have exited through the done
	// branch with chunks still queued; release them so the pump's source
	// goroutine can finish (and close pump.C, which Err() requires).
	for nc := range pump.C {
		pump.Done(nc)
	}

	ps := pump.Stats()
	if e.Span != nil {
		srcSpan.Set("chunks", ps.Chunks)
		srcSpan.Set("stall_ns", ps.StallNS)
		srcSpan.Set("peak_inflight_bytes", ps.PeakInFlightBytes)
		srcSpan.End()
		for _, s := range wSpans {
			s.End()
		}
		sinkSpan.Set("stall_ns", sinkStallNS)
		sinkSpan.End()
	}
	e.LastStream.PeakInFlightBytes = ps.PeakInFlightBytes
	e.LastStream.SourceStallNS = ps.StallNS
	e.LastStream.OpsStallNS = opsStallNS.Load()
	e.LastStream.SinkStallNS = sinkStallNS
	if e.Metrics != nil {
		const help = "Cumulative seconds each pipeline stage of the most recent streaming run spent blocked on its neighbours."
		e.Metrics.Gauge("lumen_stage_stall_seconds", help, "stage", "source").Set(float64(ps.StallNS) / 1e9)
		e.Metrics.Gauge("lumen_stage_stall_seconds", help, "stage", "ops").Set(float64(opsStallNS.Load()) / 1e9)
		e.Metrics.Gauge("lumen_stage_stall_seconds", help, "stage", "sink").Set(float64(sinkStallNS) / 1e9)
	}

	// Both unwind paths can carry an error: the sink hitting an op error
	// in order, and the pump's source failing concurrently. Surfacing only
	// the sink's used to silently drop a decode failure.
	srcErr := pump.Err()
	if srcErr != nil {
		srcErr = fmt.Errorf("core: packet source: %w", srcErr)
	}
	if firstErr != nil {
		if srcErr != nil {
			return nil, errors.Join(firstErr, srcErr)
		}
		return nil, firstErr
	}
	if srcErr != nil {
		return nil, srcErr
	}
	return r.finish()
}
