package harness

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// replicaGap separates timestamp-shifted replicas. It exceeds the flow
// idle timeout (64 s), so no connection spans two replicas.
const replicaGap = 120 * time.Second

// Capture describes the input one set-up wrote to disk.
type Capture struct {
	// File is the whole capture; Rotated is the directory holding the
	// same packets split into rotated files (watch workloads only).
	File    string
	Rotated string
	Files   int
	Link    netpkt.LinkType
	Gran    dataset.Granularity
	Packets int
	// WireBytes sums the packets' on-wire lengths; Digest is the SHA-256
	// of File.
	WireBytes int64
	Digest    string
}

// generate builds the workload's base trace from the seed: the seed
// jitters the generation scale in [1.0, 1.1)×, timestamps are cut to the
// pcap format's microsecond resolution (so the in-memory trace equals
// what a reader decodes), and the trace is cut to BasePackets.
func generate(w Workload, seed int64) (*dataset.Labeled, error) {
	spec, ok := dataset.Get(w.Dataset)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", w.Dataset)
	}
	jitter := 1 + 0.1*rand.New(rand.NewSource(seed)).Float64()
	ds := spec.Generate(w.GenScale * jitter)
	if len(ds.Packets) < w.BasePackets {
		return nil, fmt.Errorf("bench: %s at scale %.2f has %d packets, workload %s needs %d",
			w.Dataset, w.GenScale*jitter, len(ds.Packets), w.Name, w.BasePackets)
	}
	ds.Packets = ds.Packets[:w.BasePackets]
	ds.Labels = ds.Labels[:w.BasePackets]
	ds.Attacks = ds.Attacks[:w.BasePackets]
	for _, p := range ds.Packets {
		p.Ts = p.Ts.Truncate(time.Microsecond)
	}
	return ds, nil
}

// writeCapture writes the replicated trace under dir: always as one
// file, and for watch workloads also split into RotatedFiles files of
// equal packet count.
func writeCapture(w Workload, ds *dataset.Labeled, dir string) (*Capture, error) {
	c := &Capture{
		File:    filepath.Join(dir, "capture.pcap"),
		Link:    ds.Link,
		Gran:    ds.Granularity,
		Packets: w.Packets(),
	}
	h := sha256.New()
	if err := writeReplicas(c.File, h, ds, 0, c.Packets); err != nil {
		return nil, err
	}
	c.Digest = hex.EncodeToString(h.Sum(nil))
	for _, p := range ds.Packets {
		c.WireBytes += int64(len(p.Data))
	}
	c.WireBytes *= int64(w.Replicas)
	if w.Ingest != IngestWatch {
		return c, nil
	}
	c.Rotated = filepath.Join(dir, "rotated")
	c.Files = w.RotatedFiles
	if err := os.Mkdir(c.Rotated, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < c.Files; i++ {
		from, to := i*c.Packets/c.Files, (i+1)*c.Packets/c.Files
		path := filepath.Join(c.Rotated, fmt.Sprintf("trace-%06d.pcap", i))
		if err := writeReplicas(path, io.Discard, ds, from, to); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// writeReplicas writes packets [from, to) of the replicated trace — the
// base trace repeated, each replica shifted past the previous one — to
// path, teeing the file bytes into sum.
func writeReplicas(path string, sum io.Writer, ds *dataset.Labeled, from, to int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<20)
	pw, err := pcap.NewWriter(bw, ds.Link)
	if err != nil {
		return err
	}
	n := len(ds.Packets)
	step := ds.Packets[n-1].Ts.Sub(ds.Packets[0].Ts) + replicaGap
	for i := from; i < to; i++ {
		p := ds.Packets[i%n]
		if err := pw.WriteRaw(p.Ts.Add(time.Duration(i/n)*step), p.Data); err != nil {
			return err
		}
	}
	if err := pw.Flush(); err != nil {
		return err
	}
	return bw.Flush()
}
