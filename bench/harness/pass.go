package harness

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"lumen/internal/core"
	"lumen/internal/daemon"
	"lumen/internal/dataset"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

const (
	// watchPoll is the watch source's poll interval; statusPoll is how
	// often the harness checks whether a watch or feed pass has scored
	// every packet (it bounds how late the drain is requested).
	watchPoll  = time.Millisecond
	statusPoll = 500 * time.Microsecond
	// heapSample is the peak-heap sampler's period.
	heapSample = time.Millisecond
	heapMetric = "/memory/classes/heap/objects:bytes"
)

// PassOpts selects what one daemon pass runs with. The zero value is the
// untraced production configuration of the workload.
type PassOpts struct {
	// Rec traces the pass through the source, classifier and writer
	// wrappers.
	Rec *Recorder
	// NoAlerts runs with PipeConfig.Alerts nil (verdicts are still
	// counted), pricing alert encoding by difference.
	NoAlerts bool
	// Metrics runs the daemon with an obs.Metrics registry attached.
	Metrics bool
	// FromFile ingests the whole capture file whatever the workload's
	// ingest path is.
	FromFile bool
	// AlertTee and ConnTee receive a copy of the alert and conn-log
	// bytes (verification, open-loop latency).
	AlertTee, ConnTee io.Writer
	// Producer replaces the closed-loop feed producer (open-loop
	// segment) and Packets says how many frames it sends.
	Producer func(conn *bufio.Writer) error
	Packets  int
}

// Pass is what one daemon pass measured.
type Pass struct {
	Wall time.Duration
	// CPU is the process's user+system time over the pass.
	CPU time.Duration
	// Mallocs and AllocBytes are runtime.MemStats deltas over the pass.
	Mallocs, AllocBytes uint64
	// PeakHeap is the high-water mark of heap object bytes above
	// Baseline, the post-GC heap just before the pass.
	PeakHeap, Baseline uint64
	Status             daemon.PipeStatus
	Stream             core.StreamStats
	AlertLines         int64
	AlertBytes         int64
	ConnLines          int64
	Packets            int
	// Views is the traced source's view state (nil untraced or feed).
	Views *tracedViews
}

// PPS is the pass's packets per second.
func (p *Pass) PPS() float64 { return float64(p.Packets) / p.Wall.Seconds() }

// lineCounter counts the bytes and newlines written through it and tees
// them on.
type lineCounter struct {
	lines, bytes int64
	tee          io.Writer
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.bytes += int64(len(p))
	c.lines += int64(bytes.Count(p, []byte{'\n'}))
	if c.tee != nil {
		return c.tee.Write(p)
	}
	return len(p), nil
}

// heapSampler tracks the high-water mark of heap object bytes from its
// own goroutine; Stop joins it.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapSample)
		defer tick.Stop()
		for {
			if v := readHeap(s); v > h.peak {
				h.peak = v
			}
			select {
			case <-tick.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// Stop ends the sampler, waits for its goroutine and returns the peak.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openSource opens a fresh source for one pass: the workload's ingest
// path, or the whole capture file when fromFile is set. release closes
// what the source holds (descriptor, mapping); call it after the
// pipeline stopped.
func (e *Env) openSource(fromFile bool) (src dataset.Source, release func(), err error) {
	if fromFile || e.W.Ingest == IngestFile {
		ps, release, err := e.openFile()
		if err != nil {
			return nil, nil, err // not a nil *PcapSource inside a non-nil Source
		}
		return ps, release, nil
	}
	if e.W.Ingest == IngestWatch {
		return daemon.NewDirSource(e.W.Name, e.Cap.Rotated, "*.pcap", e.Cap.Gran, e.Cap.Link, watchPoll), func() {}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	fs := daemon.NewFeedSource(e.W.Name, ln, e.Cap.Link, 0)
	// Drain closes the listener and every connection, and is idempotent:
	// it also covers passes that failed before draining.
	return fs, fs.Drain, nil
}

// openFile opens the whole capture as a memory-mapped pcap source.
func (e *Env) openFile() (*dataset.PcapSource, func(), error) {
	f, err := os.Open(e.Cap.File)
	if err != nil {
		return nil, nil, err
	}
	ps, err := dataset.NewPcapSource(e.W.Name, f, e.Cap.Gran)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return ps, func() { ps.Close(); f.Close() }, nil
}

// withMapped opens the capture memory-mapped and hands the reader to fn.
func (e *Env) withMapped(fn func(r *pcap.Reader) error) error {
	f, err := os.Open(e.Cap.File)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.OpenMmap(f)
	if err != nil {
		return err
	}
	defer r.Close()
	return fn(r)
}

// produce is the closed-loop feed producer: it frames the capture's
// first limit packets (all of them when limit is 0), straight off a
// mapping, into w.
func (e *Env) produce(w io.Writer, limit int) error {
	return e.withMapped(func(r *pcap.Reader) error {
		for n := 0; limit <= 0 || n < limit; n++ {
			ts, data, _, err := r.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if err := daemon.WriteFrame(w, ts, data); err != nil {
				return err
			}
		}
		return nil
	})
}

// feed connects to the feed source and runs the producer through one
// buffered connection, closing it at the end.
func feed(addr net.Addr, produce func(*bufio.Writer) error) error {
	conn, err := net.Dial(addr.Network(), addr.String())
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(conn, 1<<16)
	err = produce(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// RunPass runs one pass — daemon.Start to <-Pipe.Done() over the whole
// capture with a fresh source and the set-up's trained engine — and
// checks its outcome against the reference.
func (e *Env) RunPass(o PassOpts) (*Pass, error) {
	model := e.Model
	if o.Rec != nil {
		model = traceClassifier(e.Model, o.Rec)
	}
	if err := e.Eng.ReplaceModel(model); err != nil {
		return nil, err
	}
	inner, release, err := e.openSource(o.FromFile)
	if err != nil {
		return nil, err
	}
	release = sync.OnceFunc(release)
	defer release()
	src := inner
	res := &Pass{Packets: e.Cap.Packets}
	if o.Packets > 0 {
		res.Packets = o.Packets
	}
	if o.Rec != nil {
		if src, res.Views, err = traceSource(inner, o.Rec, 0); err != nil {
			return nil, err
		}
	}
	alerts := &lineCounter{tee: o.AlertTee}
	conns := &lineCounter{tee: o.ConnTee}
	cfg := daemon.PipeConfig{
		Name:          e.W.Name,
		Engine:        e.Eng,
		Source:        src,
		Stream:        e.W.Stream,
		AnomaliesOnly: e.W.AnomaliesOnly,
	}
	if !o.NoAlerts {
		cfg.Alerts = alerts
		if o.Rec != nil {
			cfg.Alerts = tracedWriter{alerts, o.Rec, SpanAlertW}
		}
	}
	if e.W.ConnLog {
		cfg.ConnLog = conns
		if o.Rec != nil {
			cfg.ConnLog = tracedWriter{conns, o.Rec, SpanConnLogW}
		}
	}
	var dcfg daemon.Config
	if o.Metrics {
		dcfg.Metrics = obs.NewMetrics()
	}
	d := daemon.New(dcfg)

	runtime.GC()
	heap := []metrics.Sample{{Name: heapMetric}}
	res.Baseline = readHeap(heap)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sampler := startHeapSampler()
	cpu0 := cpuTime()
	t0 := time.Now()
	if o.Rec != nil {
		_, recycles := inner.(dataset.Recycler)
		o.Rec.BeginPass(t0, recycles)
	}
	p, err := d.Start(cfg)
	if err != nil {
		sampler.Stop()
		return nil, err
	}
	defer d.DrainAll() // every exit path leaves no pipeline goroutine behind
	var fed chan error
	if fs, ok := inner.(*daemon.FeedSource); ok {
		produce := o.Producer
		if produce == nil {
			produce = func(w *bufio.Writer) error { return e.produce(w, 0) }
		}
		fed = make(chan error, 1) // one send, never blocks the producer
		go func() { fed <- feed(fs.Addr(), produce) }()
	}
	if _, drains := inner.(daemon.Drainer); drains {
		// A watch or a feed never ends by itself: drain once the
		// pipeline has scored every packet the capture holds.
		tick := time.NewTicker(statusPoll)
	wait:
		for {
			select {
			case <-p.Done():
				break wait
			case <-tick.C:
				if p.Status().Packets >= int64(res.Packets) {
					break wait
				}
			}
		}
		tick.Stop()
		p.Drain()
	}
	<-p.Done()
	t1 := time.Now()
	if o.Rec != nil {
		o.Rec.EndPass(t1)
	}
	res.Wall = t1.Sub(t0)
	res.CPU = cpuTime() - cpu0
	peak := sampler.Stop()
	runtime.ReadMemStats(&m1)
	res.Status = p.Status() // before release: a closed source forgets its decode mode
	// Releasing first closes a feed's connections, so a producer still
	// writing to a pipeline that failed early errors out instead of
	// blocking.
	release()
	if fed != nil {
		if err := <-fed; err != nil {
			return nil, fmt.Errorf("bench: feed producer: %w", err)
		}
	}
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	if peak > res.Baseline {
		res.PeakHeap = peak - res.Baseline
	}
	res.Stream = e.Eng.LastStream
	res.AlertLines, res.AlertBytes, res.ConnLines = alerts.lines, alerts.bytes, conns.lines
	return res, e.check(res, o)
}

// check asserts the pass's outcome: clean stop, every packet and verdict
// accounted for, the fast path still taken, and no mapping leaked.
func (e *Env) check(p *Pass, o PassOpts) error {
	st := p.Status
	ref := e.Ref
	if o.Packets > 0 {
		// A custom producer feeds a packet pipeline that reports every
		// verdict, so its counts follow from what it sent.
		ref.Verdicts, ref.Alerts = int64(o.Packets), int64(o.Packets)
	}
	switch {
	case st.State != daemon.StateStopped.String() || st.Error != "":
		return fmt.Errorf("bench: pipeline ended %s (error %q)", st.State, st.Error)
	case st.Packets != int64(p.Packets):
		return fmt.Errorf("bench: pipeline saw %d packets, capture holds %d", st.Packets, p.Packets)
	case st.Verdicts != ref.Verdicts:
		return fmt.Errorf("bench: %d verdicts, reference has %d", st.Verdicts, ref.Verdicts)
	case !o.NoAlerts && (p.AlertLines != ref.Alerts || st.Alerts != ref.Alerts):
		return fmt.Errorf("bench: %d alert lines written (%d counted), reference has %d", p.AlertLines, st.Alerts, ref.Alerts)
	case e.W.ConnLog && p.ConnLines != ref.ConnLines:
		return fmt.Errorf("bench: conn-log has %d lines, reference has %d", p.ConnLines, ref.ConnLines)
	case e.W.Lazy() && (st.DecodeMode != "mmap+lazy" || !p.Stream.LazyViews):
		return fmt.Errorf("bench: decode mode %q (lazy views %v), want mmap+lazy", st.DecodeMode, p.Stream.LazyViews)
	case p.Stream.Pipelined == e.W.Sequential():
		return fmt.Errorf("bench: pass ran pipelined=%v, workload is sequential=%v", p.Stream.Pipelined, e.W.Sequential())
	}
	if n := pcap.OpenMappings(); n != e.mapBaseline {
		return fmt.Errorf("bench: %d pcap mappings open after the pass, %d before", n, e.mapBaseline)
	}
	return nil
}
