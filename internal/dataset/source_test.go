package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

func genF1(t *testing.T) *Labeled {
	t.Helper()
	spec, ok := Get("F1")
	if !ok {
		t.Fatal("no dataset F1")
	}
	return spec.Generate(0.05)
}

// drain pulls every chunk, checking base indices are contiguous.
func drain(t *testing.T, src Source, maxRows, maxBytes int) []Chunk {
	t.Helper()
	var out []Chunk
	next := 0
	for {
		ck, ok := src.Next(maxRows, maxBytes)
		if !ok {
			break
		}
		if ck.Base != next {
			t.Fatalf("chunk base %d, want %d", ck.Base, next)
		}
		next += ck.Len()
		out = append(out, ck)
		if len(out) > 1<<20 {
			t.Fatal("source never terminates")
		}
	}
	return out
}

func TestSliceSourceChunksCoverDataset(t *testing.T) {
	ds := genF1(t)
	src := NewSliceSource(ds)
	chunks := drain(t, src, 64, 0)
	total := 0
	for _, ck := range chunks {
		if ck.Len() > 64 {
			t.Fatalf("chunk of %d packets exceeds row bound", ck.Len())
		}
		for j := range ck.Views {
			v, p := &ck.Views[j], ds.Packets[ck.Base+j]
			if &v.Data[0] != &p.Data[0] || !reflect.DeepEqual(v.Materialize(), netpkt.Decode(p.Data, ds.Link, p.Ts)) {
				t.Fatalf("packet %d+%d is not a zero-copy view of the dataset's", ck.Base, j)
			}
			if ck.Labels[j] != ds.Labels[ck.Base+j] || ck.Attacks[j] != ds.Attacks[ck.Base+j] {
				t.Fatalf("labels misaligned at %d+%d", ck.Base, j)
			}
		}
		total += ck.Len()
	}
	if total != len(ds.Packets) {
		t.Fatalf("chunks cover %d packets, dataset has %d", total, len(ds.Packets))
	}
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
}

func TestSliceSourceUnboundedIsOneChunk(t *testing.T) {
	ds := genF1(t)
	chunks := drain(t, NewSliceSource(ds), 0, 0)
	if len(chunks) != 1 || chunks[0].Len() != len(ds.Packets) {
		t.Fatalf("unbounded pull gave %d chunks", len(chunks))
	}
}

// An empty dataset ends with no chunk: the engine, not the source, runs
// the empty chunk of an empty stream.
func TestSliceSourceEmptyDatasetEndsWithNoChunk(t *testing.T) {
	src := NewSliceSource(&Labeled{Name: "empty"})
	if chunks := drain(t, src, 64, 0); len(chunks) != 0 {
		t.Fatalf("empty dataset: got %d chunks, want none", len(chunks))
	}
}

func TestSliceSourceByteBoundProgress(t *testing.T) {
	ds := genF1(t)
	// A byte bound below any packet size must still move one packet per
	// chunk, never stall.
	chunks := drain(t, NewSliceSource(ds), 0, 1)
	if len(chunks) != len(ds.Packets) {
		t.Fatalf("1-byte bound gave %d chunks for %d packets", len(chunks), len(ds.Packets))
	}
}

func TestSliceSourceReset(t *testing.T) {
	ds := genF1(t)
	src := NewSliceSource(ds)
	a := drain(t, src, 50, 0)
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	b := drain(t, src, 50, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("second pass differs after Reset")
	}
}

// TestPcapSourceMatchesReadAll round-trips a generated trace through an
// in-memory pcap file and checks the chunked reader yields the same
// packets as the batch decode.
func TestPcapSourceMatchesReadAll(t *testing.T) {
	ds := genF1(t)
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Packets {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	br, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := br.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	src, err := NewPcapSource("f1.pcap", bytes.NewReader(raw), ConnectionG)
	if err != nil {
		t.Fatal(err)
	}
	chunks := drain(t, src, 37, 0)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	var got []*netpkt.Packet
	for _, ck := range chunks {
		if len(ck.Labels) != ck.Len() || len(ck.Attacks) != ck.Len() {
			t.Fatal("pcap chunks must carry zero-filled labels")
		}
		for i := range ck.Views {
			got = append(got, ck.Views[i].Materialize())
		}
	}
	if len(got) != len(want) {
		t.Fatalf("chunked read got %d packets, ReadAll %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("packet %d differs between chunked and batch read", i)
		}
	}
	if meta := src.Meta(); meta.Link != ds.Link || meta.Name != "f1.pcap" {
		t.Fatalf("meta %+v", meta)
	}

	// Reset must replay the capture identically.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	again := drain(t, src, 37, 0)
	if len(again) != len(chunks) {
		t.Fatalf("reset pass gave %d chunks, first pass %d", len(again), len(chunks))
	}
}

// TestPcapSourceModeSurvivesClose: a mapped source stays a mapped source
// after Close. DecodeMode keeps saying so, and Recycle of a chunk cut
// before Close (no mapping ref) hands none of its record bytes, which
// alias the released mapping, to the pool a later reader draws from.
func TestPcapSourceModeSurvivesClose(t *testing.T) {
	ds := genF1(t)
	path := filepath.Join(t.TempDir(), "f1.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(f, ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Packets {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := pcap.NewBufferPool()
	src, err := NewPcapSourcePooled("f1.pcap", f, ConnectionG, pool)
	if err != nil {
		t.Fatal(err)
	}
	if src.DecodeMode() != "mmap+lazy" {
		t.Skip("regular files are not mapped on this platform")
	}
	ck, ok := src.Next(16, 0)
	if !ok || ck.Len() == 0 || ck.Ref != nil {
		t.Fatalf("first chunk: ok=%v len=%d ref=%v", ok, ck.Len(), ck.Ref != nil)
	}
	// Addresses only: once Close unmaps, the bytes must not be read.
	mapped := map[*byte]bool{}
	for i := range ck.Views {
		mapped[&ck.Views[i].Data[0]] = true
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if m := src.DecodeMode(); m != "mmap+lazy" {
		t.Errorf("DecodeMode = %q after Close, want mmap+lazy", m)
	}
	src.Recycle(ck)
	for i := 0; i < len(mapped); i++ {
		if b := pool.GetData(1); mapped[&b[0]] {
			t.Fatal("Recycle after Close pooled a record buffer that aliases the released mapping")
		}
	}
}

func TestPcapSourceEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, netpkt.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	src, err := NewPcapSource("empty.pcap", bytes.NewReader(buf.Bytes()), Packet)
	if err != nil {
		t.Fatal(err)
	}
	if chunks := drain(t, src, 64, 0); len(chunks) != 0 {
		t.Fatalf("empty capture: got %d chunks, want none", len(chunks))
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
}

// TestLoadPcapErrors covers the whole-capture loader's failure modes.
func TestLoadPcapErrors(t *testing.T) {
	if _, err := LoadPcap(filepath.Join(t.TempDir(), "missing.pcap")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.pcap")
	if err := os.WriteFile(bad, []byte("not a pcap"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPcap(bad); err == nil {
		t.Fatal("bad magic must error")
	}
}
