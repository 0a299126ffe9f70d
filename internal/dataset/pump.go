package dataset

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Recycler is implemented by sources whose chunks can be handed back for
// buffer reuse once the consumer is completely done with them (no view,
// and nothing aliasing a view's Data, retained). PcapSource pools view
// slices and buffered record bytes; SliceSource pools view slices only,
// since its bytes belong to the materialized dataset.
type Recycler interface {
	Recycle(Chunk)
}

// NumberedChunk is a chunk with its position in the stream, as emitted by
// a Pump. Seq starts at 0 and increments by one per chunk: the chunk's
// sequence number in everything a consumer reports about it.
type NumberedChunk struct {
	Seq int
	Chunk
}

// PumpConfig shapes a Pump.
type PumpConfig struct {
	// MaxRows / MaxBytes bound each chunk (Source.Next semantics).
	MaxRows  int
	MaxBytes int
	// Depth is the channel buffer: how many decoded chunks may sit
	// between the source goroutine and the consumer (minimum 1).
	Depth int
}

// PumpStats summarizes a pump's activity so far.
type PumpStats struct {
	// Chunks is the number of chunks emitted.
	Chunks int
	// PeakInFlightBytes is the high-water mark of wire bytes decoded but
	// not yet released with Done — the pump's actual buffering, bounded
	// by O(Depth + consumer lag) chunks.
	PeakInFlightBytes int64
	// StallNS is the cumulative time the source goroutine spent blocked
	// handing chunks to a slower consumer.
	StallNS int64
}

// Pump is the pipelined source stage: a goroutine that pulls chunks from
// a Source and hands them to the consumer through a bounded channel, so
// decode overlaps with downstream work while peak memory stays
// O(Depth × chunk). Create one with StartPump, range over C, and call
// Done on each chunk when finished with it (Done drives the in-flight
// byte accounting, buffer recycling and backing-resource release).
type Pump struct {
	// C delivers chunks in stream order and is closed at end of stream
	// (or after Stop).
	C <-chan NumberedChunk

	src      Source
	rec      Recycler // nil when the source pools nothing
	quit     chan struct{}
	stopped  atomic.Bool
	chunks   atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64
	stallNS  atomic.Int64
	// panicked is what the source goroutine recovered from a panicking
	// Next (nil: none); written before C closes.
	panicked error
}

// StartPump launches the source goroutine. The source must not be used
// by anyone else until C closes.
func StartPump(src Source, cfg PumpConfig) *Pump {
	depth := cfg.Depth
	if depth < 1 {
		depth = 1
	}
	ch := make(chan NumberedChunk, depth)
	p := &Pump{C: ch, src: src, quit: make(chan struct{})}
	p.rec, _ = src.(Recycler)
	go func() {
		defer close(ch)
		// A source that panics, or faults on a capture truncated under its
		// mapping, ends the stream with an error instead of taking down
		// the process: nobody could recover it on this goroutine.
		debug.SetPanicOnFault(true)
		defer func() {
			if v := recover(); v != nil {
				p.panicked = fmt.Errorf("source panicked: %v", v)
			}
		}()
		seq := 0
		for {
			ck, ok := src.Next(cfg.MaxRows, cfg.MaxBytes)
			if !ok {
				return
			}
			p.chunks.Add(1)
			p.addInFlight(int64(ck.WireBytes()))
			start := time.Now()
			nc := NumberedChunk{Seq: seq, Chunk: ck}
			select {
			case ch <- nc:
			case <-p.quit:
				// Never delivered, so no consumer will: release it here, or
				// its mapping reference (or pooled buffers) would leak.
				p.Done(nc)
				return
			}
			p.stallNS.Add(time.Since(start).Nanoseconds())
			seq++
		}
	}()
	return p
}

// addInFlight adjusts the in-flight byte count and maintains the peak.
func (p *Pump) addInFlight(d int64) {
	v := p.inFlight.Add(d)
	for {
		cur := p.peak.Load()
		if v <= cur || p.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Done releases one delivered chunk: its bytes leave the in-flight
// account, its buffers return to the source's pool (when the source is
// a Recycler), and its backing-resource reference (Chunk.Ref) is
// released — for mmap-backed chunks from a rotated-capture watch this is
// what finally lets the file's mapping unmap. Call it exactly once per
// chunk received from C, from any goroutine, only when nothing
// references the chunk's packets anymore.
func (p *Pump) Done(ck NumberedChunk) {
	p.addInFlight(-int64(ck.WireBytes()))
	if p.rec != nil {
		p.rec.Recycle(ck.Chunk)
	}
	ck.ReleaseRef()
}

// Stop aborts the source goroutine early (e.g. when the consumer hit an
// error). C still gets closed; chunks already buffered in C are not
// drained — the consumer should keep receiving until C closes.
func (p *Pump) Stop() {
	if p.stopped.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// Err reports the error that ended the stream: a panic in the source's
// Next, or the source's own Err. Valid once C has closed.
func (p *Pump) Err() error {
	if p.panicked != nil {
		return p.panicked
	}
	return p.src.Err()
}

// Stats snapshots the pump's counters; safe to call concurrently.
func (p *Pump) Stats() PumpStats {
	return PumpStats{
		Chunks:            int(p.chunks.Load()),
		PeakInFlightBytes: p.peak.Load(),
		StallNS:           p.stallNS.Load(),
	}
}
