package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lumen/internal/netpkt"
)

// writeCaptureFile materializes a sample capture as a regular file.
func writeCaptureFile(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMmap opens a capture file in zero-copy mode, skipping on platforms
// without mmap support.
func openMmap(t *testing.T, path string) (*Reader, *os.File) {
	t.Helper()
	if !mmapSupported {
		t.Skip("mmap not supported on this platform")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenMmap(f)
	if err != nil {
		f.Close()
		t.Fatalf("OpenMmap: %v", err)
	}
	return r, f
}

// customCapture hand-builds a little-endian usec capture with the given
// header snaplen and one record claiming incl bytes (body holds body
// bytes, which may differ to simulate corruption).
func customCapture(snaplen, incl uint32, body []byte) []byte {
	var buf bytes.Buffer
	gh := make([]byte, 24)
	binary.LittleEndian.PutUint32(gh[0:4], magicUsec)
	binary.LittleEndian.PutUint16(gh[4:6], 2)
	binary.LittleEndian.PutUint16(gh[6:8], 4)
	binary.LittleEndian.PutUint32(gh[16:20], snaplen)
	binary.LittleEndian.PutUint32(gh[20:24], uint32(netpkt.LinkEthernet))
	buf.Write(gh)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:4], 1)
	binary.LittleEndian.PutUint32(rec[8:12], incl)
	binary.LittleEndian.PutUint32(rec[12:16], incl)
	buf.Write(rec)
	buf.Write(body)
	return buf.Bytes()
}

// TestSnapLenValidation: a record header claiming more bytes than the
// capture's snapshot length is corrupt and must be rejected — including
// when the claim is still under the format ceiling (the case a prior
// version accepted, mis-framing every later record).
func TestSnapLenValidation(t *testing.T) {
	cases := []struct {
		name    string
		snaplen uint32
		incl    uint32
		wantErr bool
	}{
		{"within snaplen", 100, 80, false},
		{"over snaplen under ceiling", 100, 200, true},
		{"zero snaplen uses ceiling", 0, DefaultSnapLen + 1, true},
		{"zero snaplen within ceiling", 0, 1000, false},
		{"large snaplen not clamped", 262144, 100000, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := customCapture(c.snaplen, c.incl, make([]byte, c.incl))
			r, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			_, data, _, err := r.Next()
			if c.wantErr {
				if err == nil || errors.Is(err, io.EOF) {
					t.Fatalf("corrupt record accepted (err=%v)", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid record rejected: %v", err)
			}
			if len(data) != int(c.incl) {
				t.Fatalf("read %d bytes, want %d", len(data), c.incl)
			}
		})
	}
}

func TestOpenMmapRoundTrip(t *testing.T) {
	raw := sampleCapture(t, 10)
	path := writeCaptureFile(t, raw)
	r, f := openMmap(t, path)
	defer f.Close()
	defer r.Close()
	if !r.ZeroCopy() {
		t.Fatal("mmap reader should report ZeroCopy")
	}
	if r.LinkType() != netpkt.LinkEthernet {
		t.Fatalf("link = %v, want ethernet", r.LinkType())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	br, _ := NewReader(bytes.NewReader(raw))
	want, err := br.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mmap read %d packets, buffered %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("packet %d differs between mmap and buffered decode", i)
		}
	}
	// Rewind re-reads the same stream in place.
	if !r.Rewind() {
		t.Fatal("mmap reader must support Rewind")
	}
	again, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(want) {
		t.Fatalf("rewound read %d packets, want %d", len(again), len(want))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestOpenMmapRejectsNonRegular(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap not supported on this platform")
	}
	f, err := os.Open(os.DevNull)
	if err != nil {
		t.Skip("no /dev/null")
	}
	defer f.Close()
	if _, err := OpenMmap(f); err == nil {
		t.Fatal("OpenMmap should reject non-regular files")
	}
}

func TestOpenMmapRejectsShortFile(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap not supported on this platform")
	}
	path := writeCaptureFile(t, []byte{1, 2, 3})
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := OpenMmap(f); err == nil {
		t.Fatal("OpenMmap should reject files shorter than a global header")
	}
}

func TestMmapTruncatedRecord(t *testing.T) {
	raw := sampleCapture(t, 3)
	// Chop the final record body: Next must surface a truncation error,
	// exactly like the buffered reader.
	path := writeCaptureFile(t, raw[:len(raw)-2])
	r, f := openMmap(t, path)
	defer f.Close()
	defer r.Close()
	var err error
	for i := 0; i < 3; i++ {
		if _, _, _, err = r.Next(); err != nil {
			break
		}
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("want truncation error, got %v", err)
	}
}

func TestMmapPartialTrailerIsEOF(t *testing.T) {
	raw := sampleCapture(t, 2)
	// Leave 8 dangling bytes of a third record header: a partial trailer
	// ends the stream cleanly.
	trailer := make([]byte, 8)
	path := writeCaptureFile(t, append(raw, trailer...))
	r, f := openMmap(t, path)
	defer f.Close()
	defer r.Close()
	n := 0
	for {
		_, _, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d packets, want 2", n)
	}
}

// TestReadViewsMatchReadAll: materialized views must equal the eagerly
// decoded packets, in both reader modes, at every decode hint.
func TestReadViewsMatchReadAll(t *testing.T) {
	raw := sampleCapture(t, 9)
	er, _ := NewReader(bytes.NewReader(raw))
	want, err := er.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	hints := []netpkt.DecodeHint{
		{},
		{Headers: true},
		{Headers: true, Apps: netpkt.AppDNS | netpkt.AppHTTP | netpkt.AppMQTT},
	}
	for _, hint := range hints {
		check := func(t *testing.T, r *Reader) {
			var got []*netpkt.Packet
			for {
				views, err := r.ReadViews(4, 0, hint)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := range views {
					got = append(got, views[i].Materialize())
				}
			}
			if len(got) != len(want) {
				t.Fatalf("views cover %d packets, want %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("hint %+v: packet %d differs:\nview:  %+v\neager: %+v", hint, i, got[i], want[i])
				}
			}
		}
		t.Run("buffered", func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			check(t, r)
		})
		t.Run("mmap", func(t *testing.T) {
			path := writeCaptureFile(t, raw)
			r, f := openMmap(t, path)
			defer f.Close()
			defer r.Close()
			check(t, r)
		})
	}
}

// TestMmapViewsAliasMapping: zero-copy views really are subslices of one
// mapping — no per-record allocation or copy.
func TestMmapViewsAliasMapping(t *testing.T) {
	raw := sampleCapture(t, 5)
	path := writeCaptureFile(t, raw)
	r, f := openMmap(t, path)
	defer f.Close()
	defer r.Close()
	views, err := r.ReadViews(0, 0, netpkt.DecodeHint{})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 5 {
		t.Fatalf("read %d views, want 5", len(views))
	}
	pos := 24
	for i := range views {
		d := views[i].Data
		if &d[0] != &r.mm[pos+16] {
			t.Fatalf("view %d data does not alias the mapping", i)
		}
		pos += 16 + len(d)
	}
}

// TestViewsRecordPoolRoundTrip: buffered ReadViews draws record buffers
// from the attached pool and PutOwnedViews recycles them.
func TestViewsRecordPoolRoundTrip(t *testing.T) {
	raw := sampleCapture(t, 8)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool()
	r.SetBufferPool(pool)
	for {
		views, err := r.ReadViews(2, 0, netpkt.DecodeHint{Headers: true})
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pool.PutOwnedViews(views)
	}
	gets, reuses := pool.gets.Load(), pool.reuses.Load()
	if gets == 0 || reuses == 0 {
		t.Fatalf("pool unused: gets=%d reuses=%d", gets, reuses)
	}
}
