package daemon

import (
	"path/filepath"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

// BenchmarkDirSourceMmap measures the watch-ingest source stage —
// discover, map, header-depth view decode, recycle — over a directory of
// pre-rotated captures. Each iteration runs a fresh watch over the same
// files (watches are one-shot), so the per-iteration cost includes one
// scan-and-stabilize round trip; the decode work dominates.
func BenchmarkDirSourceMmap(b *testing.B) {
	spec, ok := dataset.Get("P0")
	if !ok {
		b.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.5)
	// Replicate the trace so per-iteration decode work dominates the
	// fixed watch costs (scan round trip, stabilization sleep, opens).
	var pkts []*dataset.Record
	for len(pkts) < 8*len(ds.Packets) {
		pkts = append(pkts, ds.Packets...)
	}
	dir := b.TempDir()
	n := len(pkts)
	wire := 0
	for _, p := range pkts {
		wire += len(p.Data)
	}
	writePcap(b, filepath.Join(dir, "trace-000.pcap"), ds.Link, pkts[:n/4])
	writePcap(b, filepath.Join(dir, "trace-001.pcap"), ds.Link, pkts[n/4:n/2])
	writePcap(b, filepath.Join(dir, "trace-002.pcap"), ds.Link, pkts[n/2:3*n/4])
	writePcap(b, filepath.Join(dir, "trace-003.pcap"), ds.Link, pkts[3*n/4:])
	b.SetBytes(int64(wire))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NewDirSource("bench", dir, "*.pcap", dataset.Packet, ds.Link, 50*time.Microsecond)
		src.ConfigureViews(true, netpkt.DecodeHint{Headers: true})
		count := 0
		for count < n {
			ck, ok := src.Next(512, 0)
			if !ok {
				b.Fatalf("stream ended at %d of %d packets (err %v)", count, n, src.Err())
			}
			count += ck.Len()
			src.Recycle(ck)
			ck.ReleaseRef()
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
}
