package daemon

import (
	"sync"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

// ReplaySource replays a finite inner source (pcap file, in-memory
// corpus) as daemon ingest, optionally paced to the capture's own
// timeline. It adds the two capabilities resident pipelines need from a
// replay: pacing (wire speed or any multiple of it) and graceful Drain.
// Reset rewinds the inner source and re-arms the replay, so reloads
// replay the capture from the top.
type ReplaySource struct {
	mu      sync.Mutex
	inner   dataset.Source
	speed   float64
	delay   time.Duration
	stop    chan struct{}
	stopped bool
	emitted bool
	started bool
	wall0   time.Time
	pkt0    time.Time
}

// NewReplaySource wraps inner. speed recreates the capture's own
// timeline at a multiple of capture time (1 is wire speed); delay instead
// spaces chunks evenly, ignoring capture timestamps, so that background
// retrains and shadow windows always have chunk boundaries to land on
// however a synthetic capture stamps its packets. With both zero the
// replay runs as fast as the pipeline pulls; speed wins over delay.
func NewReplaySource(inner dataset.Source, speed float64, delay time.Duration) *ReplaySource {
	return &ReplaySource{inner: inner, speed: speed, delay: delay, stop: make(chan struct{})}
}

// Meta implements dataset.Source.
func (s *ReplaySource) Meta() dataset.SourceMeta { return s.inner.Meta() }

// ConfigureViews implements dataset.ViewSource by forwarding to the
// inner source, so a replayed capture predecodes on its reading
// goroutine exactly like direct ingest. Inner sources that take no hint
// refuse the request.
func (s *ReplaySource) ConfigureViews(on bool, hint netpkt.DecodeHint) bool {
	if vs, ok := s.inner.(dataset.ViewSource); ok {
		return vs.ConfigureViews(on, hint)
	}
	return false
}

// DecodeMode surfaces the inner source's decode mode when it reports one.
func (s *ReplaySource) DecodeMode() string {
	if dm, ok := s.inner.(interface{ DecodeMode() string }); ok {
		return dm.DecodeMode()
	}
	return ""
}

// Next implements dataset.Source: it forwards to the inner source,
// sleeping first so the chunk's first packet lands on the replay
// timeline. Drain interrupts the sleep (the chunk is still delivered;
// the stream ends on the following call).
func (s *ReplaySource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	s.mu.Lock()
	stopCh, stopped := s.stop, s.stopped
	s.mu.Unlock()
	if stopped {
		return s.endStream()
	}
	ck, ok := s.inner.Next(maxRows, maxBytes)
	if !ok {
		return s.endStream()
	}
	s.mu.Lock()
	s.emitted = true
	wait := s.delay
	if s.speed > 0 && ck.Len() > 0 {
		first := ck.Views[0].Ts
		if !s.started {
			s.started = true
			s.wall0 = time.Now()
			s.pkt0 = first
		}
		target := time.Duration(float64(first.Sub(s.pkt0)) / s.speed)
		wait = target - time.Since(s.wall0)
	}
	s.mu.Unlock()
	if wait > 0 {
		select {
		case <-time.After(wait):
		case <-stopCh:
		}
	}
	return ck, true
}

// endStream honors the at-least-one-chunk contract: the first end-of-
// stream observation on a pass that emitted nothing yields one empty
// chunk.
func (s *ReplaySource) endStream() (dataset.Chunk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.emitted {
		s.emitted = true
		return dataset.Chunk{}, true
	}
	return dataset.Chunk{}, false
}

// Reset implements dataset.Source: it rewinds the inner source and
// re-arms pacing and drain, so the next pass replays from the top.
func (s *ReplaySource) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.inner.Reset(); err != nil {
		return err
	}
	s.stop = make(chan struct{})
	s.stopped = false
	s.emitted = false
	s.started = false
	return nil
}

// Drain implements Drainer: the replay stops producing; an in-flight
// pacing sleep is interrupted and its chunk delivered, then the stream
// ends.
func (s *ReplaySource) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
}

// Recycle forwards chunk recycling to the inner source when it pools
// chunk buffers (dataset.PcapSource, dataset.SliceSource).
func (s *ReplaySource) Recycle(ck dataset.Chunk) {
	if rec, ok := s.inner.(dataset.Recycler); ok {
		rec.Recycle(ck)
	}
}

// Err surfaces the inner source's decode error when it reports one
// (dataset.PcapSource).
func (s *ReplaySource) Err() error {
	if es, ok := s.inner.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}
