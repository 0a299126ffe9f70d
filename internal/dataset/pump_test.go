package dataset

import (
	"sync/atomic"
	"testing"
)

// countedRef counts releases of the chunks that carry it.
type countedRef struct{ released atomic.Int64 }

func (r *countedRef) Release() error { r.released.Add(1); return nil }

// refSource emits empty chunks forever, each holding a reference.
type refSource struct {
	ref     *countedRef
	emitted atomic.Int64
}

func (s *refSource) Meta() SourceMeta { return SourceMeta{Name: "refs"} }
func (s *refSource) Reset() error     { return nil }
func (s *refSource) Err() error       { return nil }
func (s *refSource) Next(int, int) (Chunk, bool) {
	s.emitted.Add(1)
	return Chunk{Ref: s.ref}, true
}

// TestPumpStopReleasesUndeliveredChunk: a chunk the source goroutine cut
// but could not hand over before Stop has no consumer to call Done on
// it, so the pump itself must release its backing reference — for a
// rotated-capture watch that reference is a file mapping.
func TestPumpStopReleasesUndeliveredChunk(t *testing.T) {
	src := &refSource{ref: &countedRef{}}
	p := StartPump(src, PumpConfig{Depth: 1})
	first := <-p.C // the source goroutine now fills the queue and blocks on the next send
	p.Stop()
	p.Done(first)
	for nc := range p.C {
		p.Done(nc)
	}
	if emitted, released := src.emitted.Load(), src.ref.released.Load(); released != emitted {
		t.Fatalf("source cut %d chunks, %d were released", emitted, released)
	}
}

// panicSource hands out n chunks, then panics in Next.
type panicSource struct {
	refSource
	n int64
}

func (s *panicSource) Next(maxRows, maxBytes int) (Chunk, bool) {
	if s.emitted.Load() == s.n {
		panic("reader exploded")
	}
	return s.refSource.Next(maxRows, maxBytes)
}

// TestPumpSourcePanicEndsStream: a source that panics on the pump's
// goroutine, where no caller could recover it, ends the stream instead of
// the process: C closes after the chunks already cut, and Err reports the
// panic.
func TestPumpSourcePanicEndsStream(t *testing.T) {
	src := &panicSource{refSource{ref: &countedRef{}}, 3}
	p := StartPump(src, PumpConfig{Depth: 2})
	got := 0
	for nc := range p.C {
		got++
		p.Done(nc)
	}
	if got != 3 || src.ref.released.Load() != 3 {
		t.Fatalf("delivered %d chunks and released %d before the panic, want 3 and 3", got, src.ref.released.Load())
	}
	if err := p.Err(); err == nil || err.Error() != "source panicked: reader exploded" {
		t.Fatalf("Err() = %v, want the recovered panic", err)
	}
}

// TestPumpEmptySourceSendsNoChunk: a source that ends before its first
// chunk closes C with nothing on it; the engine, not the pump, runs the
// empty chunk of an empty stream.
func TestPumpEmptySourceSendsNoChunk(t *testing.T) {
	p := StartPump(NewSliceSource(&Labeled{Name: "empty"}), PumpConfig{MaxRows: 64, Depth: 2})
	for nc := range p.C {
		t.Errorf("pump delivered chunk %d of %d packets", nc.Seq, nc.Len())
		p.Done(nc)
	}
	if n := p.Stats().Chunks; n != 0 || p.Err() != nil {
		t.Fatalf("pump counted %d chunks, err %v; want none and nil", n, p.Err())
	}
}
