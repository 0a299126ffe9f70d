package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// benchCapture generates the P0 trace once and serializes it to pcap
// bytes; the raw frames are also returned for the netpkt-level decode
// benchmarks.
func benchCapture(b *testing.B) (raw []byte, frames [][]byte, link netpkt.LinkType, wire int) {
	b.Helper()
	spec, ok := Get("P0")
	if !ok {
		b.Fatal("no dataset P0")
	}
	ds := spec.Generate(0.5)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, ds.Link)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range ds.Packets {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			b.Fatal(err)
		}
		frames = append(frames, p.Data)
		wire += len(p.Data)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), frames, ds.Link, wire
}

// BenchmarkDecodeEager is the baseline: Decode, the header pass plus
// one materialized Packet and its layer structs per frame.
func BenchmarkDecodeEager(b *testing.B) {
	_, frames, link, wire := benchCapture(b)
	ts := time.Unix(0, 0)
	b.SetBytes(int64(wire))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			_ = netpkt.Decode(f, link, ts)
		}
	}
}

// BenchmarkDecodeLazyHeaders parses L2–L4 headers in place on a reused
// view — the decode depth most pipelines request.
func BenchmarkDecodeLazyHeaders(b *testing.B) {
	_, frames, link, wire := benchCapture(b)
	ts := time.Unix(0, 0)
	var v netpkt.PacketView
	b.SetBytes(int64(wire))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			v.Reset(f, link, ts)
			v.Predecode(netpkt.DecodeHint{Headers: true})
		}
	}
}

// BenchmarkDecodeLazyMeta is the metadata-only depth (ts/len/iat
// pipelines): no layer is parsed at all.
func BenchmarkDecodeLazyMeta(b *testing.B) {
	_, frames, link, wire := benchCapture(b)
	ts := time.Unix(0, 0)
	var v netpkt.PacketView
	b.SetBytes(int64(wire))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			v.Reset(f, link, ts)
		}
	}
}

// drainSource measures one full pass: pull every chunk and recycle it,
// exactly what the streaming engine's source stage does.
func drainSource(b *testing.B, src *PcapSource) {
	for {
		ck, ok := src.Next(512, 0)
		if !ok {
			break
		}
		src.Recycle(ck)
	}
	if err := src.Err(); err != nil {
		b.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		b.Fatal(err)
	}
}

func benchSourceStage(b *testing.B, raw []byte, mmapFile bool, wire int) {
	var src *PcapSource
	if mmapFile {
		path := filepath.Join(b.TempDir(), "bench.pcap")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		src, err = NewPcapSource("bench.pcap", f, Packet)
		if err != nil {
			b.Fatal(err)
		}
		defer src.Close()
	} else {
		var err error
		src, err = NewPcapSource("bench.pcap", bytes.NewReader(raw), Packet)
		if err != nil {
			b.Fatal(err)
		}
	}
	src.ConfigureViews(true, netpkt.DecodeHint{Headers: true})
	drainSource(b, src) // warm the pools
	b.SetBytes(int64(wire))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainSource(b, src)
	}
}

// BenchmarkSourceStage* measure the streaming engine's source stage —
// chunked header-depth view decode plus buffer recycling — over a
// buffered stream and a memory-mapped file.

func BenchmarkSourceStageLazyBuffered(b *testing.B) {
	raw, _, _, wire := benchCapture(b)
	benchSourceStage(b, raw, false, wire)
}

func BenchmarkSourceStageLazyMmap(b *testing.B) {
	raw, _, _, wire := benchCapture(b)
	benchSourceStage(b, raw, true, wire)
}
