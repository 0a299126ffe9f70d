package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lumen/internal/netpkt"
)

// fuzzRecord is one record as Reader.Next returned it.
type fuzzRecord struct {
	ts   time.Time
	data []byte
	orig int
}

// drainRecords reads r to the end, holding every record to the framing
// contract: no record longer than the capture's snapshot length, and
// never more record bytes than the input had left after its global
// header. The error is nil for a clean end of stream.
func drainRecords(t *testing.T, r *Reader, size int) ([]fuzzRecord, error) {
	t.Helper()
	limit := min(r.SnapLen(), maxSnapLen)
	if limit == 0 {
		limit = DefaultSnapLen
	}
	var recs []fuzzRecord
	left := size - 24
	for {
		ts, data, orig, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		if uint32(len(data)) > limit {
			t.Fatalf("record %d carries %d bytes, snaplen %d", len(recs), len(data), limit)
		}
		if left -= 16 + len(data); left < 0 {
			t.Fatalf("record %d reads %d bytes past the end of the input", len(recs), -left)
		}
		recs = append(recs, fuzzRecord{ts, data, orig})
	}
}

// FuzzPcapReader feeds arbitrary bytes to both read paths: the buffered
// reader over a stream and the zero-copy reader over a mapped file. Both
// must fail closed (no panic, framing contract above) and agree on the
// header, on every record, and on whether the stream ended in an error.
func FuzzPcapReader(f *testing.F) {
	capture := func(order binary.ByteOrder, magic, snaplen, incl uint32, body []byte) []byte {
		b := make([]byte, 24+16, 24+16+len(body))
		order.PutUint32(b[0:4], magic)
		order.PutUint16(b[4:6], 2)
		order.PutUint16(b[6:8], 4)
		order.PutUint32(b[16:20], snaplen)
		order.PutUint32(b[20:24], uint32(netpkt.LinkEthernet))
		order.PutUint32(b[24:28], 1)
		order.PutUint32(b[28:32], 500)
		order.PutUint32(b[32:36], incl)
		order.PutUint32(b[36:40], incl)
		return append(b, body...)
	}
	body := bytes.Repeat([]byte{0xab}, 60)
	for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
		for _, magic := range []uint32{magicUsec, magicNsec} {
			f.Add(capture(order, magic, DefaultSnapLen, 60, body))
		}
	}
	f.Add(capture(binary.LittleEndian, magicUsec, DefaultSnapLen, 60, body)[:24+9]) // truncated record header
	f.Add(capture(binary.LittleEndian, magicUsec, 40, 60, body))                    // caplen > snaplen
	f.Add(capture(binary.LittleEndian, magicUsec, 0xffffffff, 0xfffffff0, body))    // both lengths hostile

	path := filepath.Join(f.TempDir(), "fuzz.pcap")
	f.Fuzz(func(t *testing.T, raw []byte) {
		br, berr := NewReader(bytes.NewReader(raw))
		var brecs []fuzzRecord
		var bend error
		if berr == nil {
			brecs, bend = drainRecords(t, br, len(raw))
		}
		if !mmapSupported {
			return
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		mr, merr := OpenMmap(file)
		file.Close()
		if (berr == nil) != (merr == nil) {
			t.Fatalf("header: buffered err %v, mmap err %v", berr, merr)
		}
		if merr != nil {
			return
		}
		defer mr.Close()
		if mr.LinkType() != br.LinkType() || mr.SnapLen() != br.SnapLen() {
			t.Fatalf("header: mmap link %d snaplen %d, buffered %d / %d", mr.LinkType(), mr.SnapLen(), br.LinkType(), br.SnapLen())
		}
		mrecs, mend := drainRecords(t, mr, len(raw))
		if len(mrecs) != len(brecs) || (mend == nil) != (bend == nil) {
			t.Fatalf("mmap read %d records (err %v), buffered %d (err %v)", len(mrecs), mend, len(brecs), bend)
		}
		for i, m := range mrecs {
			if b := brecs[i]; !m.ts.Equal(b.ts) || m.orig != b.orig || !bytes.Equal(m.data, b.data) {
				t.Fatalf("record %d differs: mmap %v/%d/%x, buffered %v/%d/%x", i, m.ts, m.orig, m.data, b.ts, b.orig, b.data)
			}
		}
	})
}
