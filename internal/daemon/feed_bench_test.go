package daemon

import (
	"bufio"
	"net"
	"testing"

	"lumen/internal/dataset"
)

// BenchmarkFeedIngest prices the feed layer by itself: one producer
// framing a capture's packets through a buffered TCP connection (what
// bench/harness and every in-tree producer do), FeedSource.Next cutting
// 512-row chunks, ReleaseRef handing them straight back — no pipeline
// behind it. One iteration is one whole pass, listen to drain, so
// allocs/op counts the producer's and the pass's set-up too; divide by
// packets/op for the per-packet figure.
func BenchmarkFeedIngest(b *testing.B) {
	spec, ok := dataset.Get("P0")
	if !ok {
		b.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.5)
	const reps = 64 // one pass long enough to leave connection set-up behind
	n := reps * len(ds.Packets)
	wire := 0
	for _, p := range ds.Packets {
		wire += reps * len(p.Data)
	}
	b.SetBytes(int64(wire))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Skipf("tcp loopback unavailable: %v", err)
		}
		src := NewFeedSource("bench", ln, ds.Link, 0)
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		fed := make(chan error, 1)
		go func() {
			defer c.Close()
			bw := bufio.NewWriterSize(c, 1<<16)
			for r := 0; r < reps; r++ {
				for _, p := range ds.Packets {
					if err := WriteFrame(bw, p.Ts, p.Data); err != nil {
						fed <- err
						return
					}
				}
			}
			fed <- bw.Flush()
		}()
		for count := 0; count < n; {
			ck, ok := src.Next(512, 0)
			if !ok {
				b.Fatalf("stream ended at %d of %d packets (err %v)", count, n, src.Err())
			}
			count += ck.Len()
			ck.ReleaseRef()
		}
		if err := <-fed; err != nil {
			b.Fatal(err)
		}
		src.Drain()
		for {
			if _, ok := src.Next(512, 0); !ok {
				break
			}
		}
		if err := src.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(n), "packets/op")
}
