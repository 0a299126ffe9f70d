package harness

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"lumen/internal/daemon"
	"lumen/internal/pcap"
)

// The open-loop segment offers the feed a fixed rate regardless of how
// fast verdicts come back: batches go out on a schedule, and each packet
// is timed from when its batch was due — not from when it was actually
// sent — to the Write that carries its alert line, so a stall is charged
// to every packet queued behind it.
const (
	openLoopRate     = 100_000 // packets per second
	openLoopDuration = 5 * time.Second
	openLoopInterval = time.Millisecond
	openLoopBatch    = openLoopRate / int(time.Second/openLoopInterval)
)

type openLoopResult struct {
	p50, p90, p99 float64 // verdict latency, ms
	lateMaxMS     float64 // how late the generator ran at worst
}

// openLoop is both ends of the segment: produce is the generator, Write
// the alert sink that stamps completions. The feed pipeline reports
// every verdict in packet order, so the k-th alert line is packet k.
type openLoop struct {
	env     *Env
	packets int
	start   atomic.Int64 // generator start, Unix ns
	lateMax time.Duration
	done    int
	latMS   []float64
}

func (o *openLoop) due(packet int) time.Time {
	return time.Unix(0, o.start.Load()).Add(time.Duration(packet/openLoopBatch) * openLoopInterval)
}

func (o *openLoop) Write(p []byte) (int, error) {
	now := time.Now()
	for k := bytes.Count(p, []byte{'\n'}); k > 0; k-- {
		o.latMS = append(o.latMS, float64(now.Sub(o.due(o.done)).Nanoseconds())/1e6)
		o.done++
	}
	return len(p), nil
}

// produce frames packets off the capture's mapping on the schedule,
// wrapping around (with timestamps shifted forward) when the capture is
// shorter than the segment.
func (o *openLoop) produce(bw *bufio.Writer) error {
	return o.env.withMapped(func(r *pcap.Reader) error {
		var first, last time.Time
		var shift time.Duration
		o.start.Store(time.Now().UnixNano())
		for sent := 0; sent < o.packets; {
			if wait := time.Until(o.due(sent)); wait > 0 {
				time.Sleep(wait)
			}
			if late := time.Since(o.due(sent)); late > o.lateMax {
				o.lateMax = late
			}
			for i := 0; i < openLoopBatch && sent < o.packets; i++ {
				ts, data, _, err := r.Next()
				if errors.Is(err, io.EOF) {
					shift += last.Sub(first) + replicaGap
					r.Rewind()
					ts, data, _, err = r.Next()
				}
				if err != nil {
					return err
				}
				if first.IsZero() {
					first = ts
				}
				last = ts
				if err := daemon.WriteFrame(bw, ts.Add(shift), data); err != nil {
					return err
				}
				sent++
			}
			// A batch is offered when it is due, not when the buffer fills.
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		return nil
	})
}

// runOpenLoop runs the segment as one daemon pass with the scheduled
// producer in place of the closed-loop one.
func (e *Env) runOpenLoop() (openLoopResult, error) {
	ol := &openLoop{env: e, packets: openLoopRate * int(openLoopDuration/time.Second)}
	ol.latMS = make([]float64, 0, ol.packets)
	if _, err := e.RunPass(PassOpts{AlertTee: ol, Producer: ol.produce, Packets: ol.packets}); err != nil {
		return openLoopResult{}, err
	}
	sort.Float64s(ol.latMS)
	return openLoopResult{
		p50:       Percentile(ol.latMS, 50),
		p90:       Percentile(ol.latMS, 90),
		p99:       Percentile(ol.latMS, 99),
		lateMaxMS: float64(ol.lateMax.Nanoseconds()) / 1e6,
	}, nil
}
