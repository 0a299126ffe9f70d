package core

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lumen/internal/dataset"
)

// streamBenchFix holds the shared benchmark fixtures: the P0 capture at
// two sizes and an engine trained once per size, so each benchmark
// iteration measures test-mode execution only. The acceptance claim is
// that streamed test-mode peak live heap tracks the chunk size, not the
// dataset size — hence the 1x/2x pair.
var streamBenchFix struct {
	once       sync.Once
	ds1, ds2   *dataset.Labeled
	eng1, eng2 *Engine
}

func streamBenchSetup(b *testing.B) {
	b.Helper()
	streamBenchFix.once.Do(func() {
		spec, ok := dataset.Get("P0")
		if !ok {
			panic("dataset P0 not registered")
		}
		streamBenchFix.ds1 = spec.Generate(1.0)
		streamBenchFix.ds2 = spec.Generate(2.0)
		// nprint produces a wide per-packet bitmap frame, so batch test
		// mode holds an n-packets × hundreds-of-columns matrix while the
		// streamed path only ever materializes one chunk of it.
		for _, f := range []struct {
			ds  *dataset.Labeled
			dst **Engine
		}{{streamBenchFix.ds1, &streamBenchFix.eng1}, {streamBenchFix.ds2, &streamBenchFix.eng2}} {
			eng := NewEngine(nprintPipeline())
			eng.Seed = 7
			if err := eng.Train(f.ds); err != nil {
				panic(err)
			}
			*f.dst = eng
		}
	})
	if streamBenchFix.eng1 == nil || streamBenchFix.eng2 == nil {
		b.Fatal("stream benchmark fixtures failed to initialize")
	}
}

// heapLiveBytes samples the live heap the way a stream run's high-water
// mark does.
func heapLiveBytes() uint64 {
	g := gauge{{Name: heapLiveName}}
	return g.read()
}

// measurePeak runs fn b.N times and reports the live-heap high-water
// mark above the post-GC baseline as the custom metric peak-B (picked up
// by cmd/benchjson into BENCH_PR4.json). GC is forced aggressive for the
// duration so dead chunk frames are collected promptly — otherwise the
// heap never shrinks mid-run at these sizes and streamed and batch peaks
// would be indistinguishable. The mark is taken both by a background
// sampler (catches transients inside a run) and synchronously after each
// run returns, while that run's final frames are still uncollected.
func measurePeak(b *testing.B, fn func() error) {
	b.Helper()
	oldGC := debug.SetGCPercent(10)
	defer debug.SetGCPercent(oldGC)
	runtime.GC()
	base := heapLiveBytes()
	var peak atomic.Uint64
	sample := func() {
		for {
			v := heapLiveBytes()
			cur := peak.Load()
			if v <= cur || peak.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sample()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := fn()
		sample()
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
	}
	b.StopTimer()
	close(stop)
	<-done
	p := peak.Load()
	if p > base {
		p -= base
	} else {
		p = 0
	}
	b.ReportMetric(float64(p), "peak-B")
}

func BenchmarkStreamTestBatch(b *testing.B) {
	streamBenchSetup(b)
	measurePeak(b, func() error {
		_, err := streamBenchFix.eng1.Test(streamBenchFix.ds1)
		return err
	})
}

func BenchmarkStreamTestChunk64(b *testing.B) {
	streamBenchSetup(b)
	measurePeak(b, func() error {
		_, err := streamBenchFix.eng1.TestStream(streamBenchFix.ds1, StreamConfig{ChunkRows: 64})
		return err
	})
}

func BenchmarkStreamTestChunk1024(b *testing.B) {
	streamBenchSetup(b)
	measurePeak(b, func() error {
		_, err := streamBenchFix.eng1.TestStream(streamBenchFix.ds1, StreamConfig{ChunkRows: 1024})
		return err
	})
}

func BenchmarkStreamTestBatch2x(b *testing.B) {
	streamBenchSetup(b)
	measurePeak(b, func() error {
		_, err := streamBenchFix.eng2.Test(streamBenchFix.ds2)
		return err
	})
}

func BenchmarkStreamTestChunk64_2x(b *testing.B) {
	streamBenchSetup(b)
	measurePeak(b, func() error {
		_, err := streamBenchFix.eng2.TestStream(streamBenchFix.ds2, StreamConfig{ChunkRows: 64})
		return err
	})
}

// heapObjectsBytes is the bytes occupied by heap objects (live plus
// not-yet-swept) — the process's actual heap footprint, cheap enough to
// sample from a background goroutine without stopping the world.
func heapObjectsBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// benchPipeline runs one RunStream shape b.N times under the DEFAULT GC
// and reports wall time plus two memory metrics: peak-B, the sampled
// high-water mark of heap object bytes above the pre-run baseline, and
// inflight-B, the pump's peak of decoded-but-unreleased wire bytes (zero
// at depth 0, which holds exactly one chunk by construction). measurePeak's aggressive-GC harness is deliberately not
// used here: forcing a collection every few hundred kilobytes serializes
// the stages and masks the pipeline's latency-hiding win.
func benchPipeline(b *testing.B, cfg StreamConfig, delay time.Duration) {
	streamBenchSetup(b)
	runtime.GC()
	base := heapObjectsBytes()
	var peak atomic.Uint64
	sample := func() {
		for {
			v := heapObjectsBytes()
			cur := peak.Load()
			if v <= cur || peak.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sample()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var src dataset.Source = dataset.NewSliceSource(streamBenchFix.ds2)
		if delay > 0 {
			src = &slowSource{inner: src, delay: delay}
		}
		if _, err := streamBenchFix.eng2.RunStream(src, ModeTest, cfg); err != nil {
			b.Fatal(err)
		}
		sample()
	}
	b.StopTimer()
	close(stop)
	<-done
	p := peak.Load()
	if p > base {
		p -= base
	} else {
		p = 0
	}
	b.ReportMetric(float64(p), "peak-B")
	b.ReportMetric(float64(streamBenchFix.eng2.LastStream.PeakInFlightBytes), "inflight-B")
}

// BenchmarkPipeline* compares depth 0 against a staged pass on the same
// trace, chunk size, and pipeline (BENCH_PR5.json). nprint is the
// ops-heavy shape: the wide per-packet bitmap extract runs in the ops
// stage while scoring stays ordered in the sink, so on a multi-core host
// the two overlap; on one core the CPU-bound pair pins "no slower than
// depth 0" while the IO-bound pair below shows the latency-hiding win.
func BenchmarkPipelineSequential(b *testing.B) {
	benchPipeline(b, StreamConfig{ChunkRows: 256}, 0)
}

func BenchmarkPipelineDepth4(b *testing.B) {
	benchPipeline(b, StreamConfig{ChunkRows: 256, PipelineDepth: 4}, 0)
}

// benchSourceLatency simulates an I/O-bound packet source — a capture
// decoded from disk or a capped NIC ring — where each chunk pull blocks.
// This is where the staged pass wins even on a single core: the
// source goroutine waits on I/O while the ops and sink stages compute, so
// per-chunk latency is hidden instead of added to the critical path.
const benchSourceLatency = 500 * time.Microsecond

func BenchmarkPipelineIOSequential(b *testing.B) {
	benchPipeline(b, StreamConfig{ChunkRows: 256}, benchSourceLatency)
}

func BenchmarkPipelineIODepth4(b *testing.B) {
	benchPipeline(b, StreamConfig{ChunkRows: 256, PipelineDepth: 4}, benchSourceLatency)
}
