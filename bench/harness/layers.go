package harness

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"lumen/internal/daemon"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// The isolated loops call one layer's public functions directly over
// the workload's capture, for the costs a wrapper cannot split out of a
// running pass. They look at no more than loopPackets packets, and each
// timing is the median of loopReps repetitions.
const (
	loopPackets = 200_000
	loopReps    = 3
	openRounds  = 20
)

// timeReps runs fn loopReps times and returns the median duration.
func timeReps(fn func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < loopReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2], nil
}

// loopCount is how many packets the isolated loops cover.
func (e *Env) loopCount() int { return min(e.Cap.Packets, loopPackets) }

// isolated holds what the isolated loops measured, per the units in the
// metric names.
type isolated struct {
	frameNS, openUS, viewHeadersNS, viewAppsNS float64
	eagerNS, eagerAllocs, sourceStageNS        float64
	flowAssembleNS, flowHeapMB, flowConns      float64
	flowEvictedShare, connlogNS                float64
	feedIngestPPS, feedGenUS                   float64
}

func (e *Env) runIsolated() (*isolated, error) {
	n := e.loopCount()
	fn := float64(n)
	out := &isolated{}

	// pcap: record framing alone.
	d, err := timeReps(func() error {
		return e.withMapped(func(r *pcap.Reader) error {
			for i := 0; i < n; i++ {
				if _, _, _, err := r.Next(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	out.frameNS = float64(d.Nanoseconds()) / fn

	// pcap: open, map and close each file the workload ingests.
	files := []string{e.Cap.File}
	if e.Cap.Rotated != "" {
		if files, err = filepath.Glob(filepath.Join(e.Cap.Rotated, "*.pcap")); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	for round := 0; round < openRounds; round++ {
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			r, err := pcap.OpenMmap(f)
			if err != nil {
				f.Close()
				return nil, err
			}
			r.Close()
			f.Close()
		}
	}
	out.openUS = float64(time.Since(t0).Microseconds()) / float64(openRounds*len(files))

	// The decode loops run over the records' bytes, collected first so
	// framing is not timed again; the slices alias the mapping.
	err = e.withMapped(func(r *pcap.Reader) error {
		frames := make([][]byte, 0, n)
		stamps := make([]time.Time, 0, n)
		for len(frames) < n {
			ts, data, _, err := r.Next()
			if err != nil {
				return err
			}
			frames, stamps = append(frames, data), append(stamps, ts)
		}
		link := e.Cap.Link
		decodeViews := func(hint netpkt.DecodeHint) (float64, error) {
			d, err := timeReps(func() error {
				var v netpkt.PacketView
				for i, f := range frames {
					v.Reset(f, link, stamps[i])
					v.Predecode(hint)
				}
				return nil
			})
			return float64(d.Nanoseconds()) / fn, err
		}
		if out.viewHeadersNS, err = decodeViews(netpkt.DecodeHint{Headers: true}); err != nil {
			return err
		}
		if out.viewAppsNS, err = decodeViews(netpkt.DecodeHint{Headers: true, Apps: netpkt.AppDNS | netpkt.AppHTTP | netpkt.AppMQTT}); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := timeReps(func() error {
			for i, f := range frames {
				_ = netpkt.Decode(f, link, stamps[i])
			}
			return nil
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		out.eagerNS = float64(d.Nanoseconds()) / fn
		out.eagerAllocs = float64(m1.Mallocs-m0.Mallocs) / (fn * loopReps)

		// flow: one connection assembler over the packets' summaries,
		// the same projection the daemon's conn-log assembler is fed.
		sums := make([]netpkt.PacketSummary, n)
		var v netpkt.PacketView
		for i, f := range frames {
			v.Reset(f, link, stamps[i])
			sums[i] = v.Summary()
		}
		// Drop what only the decode loops needed, so the heap growth
		// below is the assembler's alone.
		frames, stamps = nil, nil
		runtime.GC()
		heap := []metrics.Sample{{Name: heapMetric}}
		base := readHeap(heap)
		t0 := time.Now()
		a := flow.NewConnAssembler(flow.Options{})
		var conns []*flow.Connection
		for i := range sums {
			conns = append(conns, a.AddSummary(i, sums[i])...)
		}
		addTook := time.Since(t0)
		evicted := len(conns)
		runtime.GC()
		if h := readHeap(heap); h > base {
			out.flowHeapMB = float64(h-base) / mb
		}
		runtime.KeepAlive(sums) // in the baseline, so it must still be in the reading
		t0 = time.Now()
		conns = append(conns, a.Flush()...)
		out.flowAssembleNS = float64((addTook + time.Since(t0)).Nanoseconds()) / fn
		out.flowConns = float64(len(conns))
		if len(conns) > 0 {
			out.flowEvictedShare = float64(evicted) / float64(len(conns))
			t0 = time.Now()
			flow.SortConnections(conns)
			if err := flow.WriteConnLog(io.Discard, conns); err != nil {
				return err
			}
			out.connlogNS = float64(time.Since(t0).Nanoseconds()) / float64(len(conns))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// dataset: the source stage as the engine drives it — lazy view
	// chunks at the plan's decode hint, recycled.
	d, err = timeReps(func() error {
		src, release, err := e.openFile()
		if err != nil {
			return err
		}
		defer release()
		src.ConfigureViews(true, e.Hint)
		for seen := 0; seen < n; {
			ck, ok := src.Next(ChunkRows, 0)
			if !ok {
				break
			}
			seen += ck.Len()
			src.Recycle(ck)
		}
		return src.Err()
	})
	if err != nil {
		return nil, err
	}
	out.sourceStageNS = float64(d.Nanoseconds()) / fn

	// harness: what the feed producer costs by itself.
	d, err = timeReps(func() error {
		bw := bufio.NewWriterSize(io.Discard, 1<<16)
		if err := e.produce(bw, n); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return nil, err
	}
	out.feedGenUS = float64(d.Microseconds()) / fn

	// daemon: producer → FeedSource.Next drain, no pipeline behind it.
	d, err = timeReps(func() error { return e.drainFeed(n) })
	if err != nil {
		return nil, err
	}
	out.feedIngestPPS = fn / d.Seconds()
	return out, nil
}

// drainFeed pushes n frames through a FeedSource and pulls them out
// again chunk by chunk.
func (e *Env) drainFeed(n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fs := daemon.NewFeedSource(e.W.Name, ln, e.Cap.Link, 0)
	defer fs.Drain()
	fed := make(chan error, 1) // one send, never blocks the producer
	go func() {
		fed <- feed(fs.Addr(), func(w *bufio.Writer) error { return e.produce(w, n) })
	}()
	for seen := 0; seen < n; {
		ck, ok := fs.Next(ChunkRows, 0)
		if !ok {
			break
		}
		seen += ck.Len()
	}
	fs.Drain()
	for {
		if _, ok := fs.Next(ChunkRows, 0); !ok {
			break
		}
	}
	return errors.Join(<-fed, fs.Err())
}
