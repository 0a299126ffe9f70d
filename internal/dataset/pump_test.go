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
