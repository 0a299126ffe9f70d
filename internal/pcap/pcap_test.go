package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"lumen/internal/netpkt"
)

func samplePacket(ts time.Time, sport uint16) *netpkt.Packet {
	return &netpkt.Packet{
		Ts:  ts,
		Eth: &netpkt.Ethernet{Src: netpkt.MAC{2, 0, 0, 0, 0, 1}, EtherType: netpkt.EtherTypeIPv4},
		IPv4: &netpkt.IPv4{
			TTL: 64, Protocol: netpkt.ProtoTCP,
			Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		},
		TCP:     &netpkt.TCP{SrcPort: sport, DstPort: 80, Flags: netpkt.FlagSYN},
		Payload: []byte("hello"),
	}
}

// writePacket serializes a builder packet and appends it as a record.
func writePacket(w *Writer, p *netpkt.Packet) error {
	data, err := p.Serialize()
	if err != nil {
		return err
	}
	return w.WriteRaw(p.Ts, data)
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, netpkt.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 123456000).UTC()
	for i := 0; i < 10; i++ {
		if err := writePacket(w, samplePacket(base.Add(time.Duration(i)*time.Millisecond), uint16(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != netpkt.LinkEthernet {
		t.Fatalf("link = %v, want ethernet", r.LinkType())
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 10 {
		t.Fatalf("read %d packets, want 10", len(pkts))
	}
	for i, p := range pkts {
		if p.TCP == nil || p.TCP.SrcPort != uint16(1000+i) {
			t.Fatalf("packet %d tcp mismatch: %+v", i, p.TCP)
		}
		want := base.Add(time.Duration(i) * time.Millisecond)
		if !p.Ts.Equal(want) {
			t.Fatalf("packet %d ts = %v, want %v", i, p.Ts, want)
		}
	}
}

func TestReaderBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte{1, 2, 3}))
	if err == nil {
		t.Fatal("want error on short header")
	}
}

func TestReaderBigEndianNanos(t *testing.T) {
	// Hand-build a big-endian nanosecond capture with one 4-byte record.
	var buf bytes.Buffer
	gh := make([]byte, 24)
	binary.BigEndian.PutUint32(gh[0:4], magicNsec)
	binary.BigEndian.PutUint16(gh[4:6], 2)
	binary.BigEndian.PutUint16(gh[6:8], 4)
	binary.BigEndian.PutUint32(gh[16:20], DefaultSnapLen)
	binary.BigEndian.PutUint32(gh[20:24], uint32(netpkt.LinkEthernet))
	buf.Write(gh)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 1000)
	binary.BigEndian.PutUint32(rec[4:8], 999) // 999 ns
	binary.BigEndian.PutUint32(rec[8:12], 4)
	binary.BigEndian.PutUint32(rec[12:16], 4)
	buf.Write(rec)
	buf.Write([]byte{0xde, 0xad, 0xbe, 0xef})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts, data, orig, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Equal(time.Unix(1000, 999).UTC()) {
		t.Errorf("ts = %v, want 1000s+999ns", ts)
	}
	if len(data) != 4 || orig != 4 {
		t.Errorf("lengths = %d/%d, want 4/4", len(data), orig)
	}
	if _, _, _, err = r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, netpkt.LinkEthernet)
	_ = w.WriteRaw(time.Unix(1, 0), []byte{1, 2, 3, 4, 5})
	_ = w.Flush()
	cut := buf.Bytes()[:buf.Len()-2] // chop the record body
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err = r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("want truncation error, got %v", err)
	}
}

func TestWriterDot11Link(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, netpkt.LinkDot11)
	if err != nil {
		t.Fatal(err)
	}
	p := &netpkt.Packet{
		Ts:    time.Unix(5, 0),
		Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Beacon, Addr2: netpkt.MAC{1, 1, 1, 1, 1, 1}},
	}
	if err := writePacket(w, p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != netpkt.LinkDot11 {
		t.Fatalf("link = %v, want dot11", r.LinkType())
	}
	got, err := r.NextPacket()
	if err != nil {
		t.Fatal(err)
	}
	if got.Dot11 == nil || got.Dot11.Subtype != netpkt.Dot11Beacon {
		t.Fatalf("dot11 mismatch: %+v", got.Dot11)
	}
}

func sampleCapture(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, netpkt.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < n; i++ {
		if err := writePacket(w, samplePacket(base.Add(time.Duration(i)*time.Millisecond), uint16(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadViewsRowBound(t *testing.T) {
	r, err := NewReader(bytes.NewReader(sampleCapture(t, 10)))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for {
		views, err := r.ReadViews(4, 0, netpkt.DecodeHint{})
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(views) > 4 || len(views) == 0 {
			t.Fatalf("chunk of %d packets violates bound", len(views))
		}
		for j := range views {
			if tcp, ok := views[j].TCP(); !ok || tcp.SrcPort != uint16(1000+total+j) {
				t.Fatalf("packet %d out of order", total+j)
			}
		}
		total += len(views)
	}
	if total != 10 {
		t.Fatalf("chunks cover %d packets, want 10", total)
	}
}

func TestReadViewsByteBoundMakesProgress(t *testing.T) {
	r, err := NewReader(bytes.NewReader(sampleCapture(t, 5)))
	if err != nil {
		t.Fatal(err)
	}
	// A 1-byte bound is below any packet size; each chunk must still
	// return exactly one packet rather than stalling or erroring.
	for i := 0; i < 5; i++ {
		views, err := r.ReadViews(0, 1, netpkt.DecodeHint{})
		if err != nil {
			t.Fatal(err)
		}
		if len(views) != 1 {
			t.Fatalf("chunk %d has %d packets, want 1", i, len(views))
		}
	}
	if _, err := r.ReadViews(0, 1, netpkt.DecodeHint{}); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at end of capture, got %v", err)
	}
}

func TestReadViewsUnboundedEqualsReadAll(t *testing.T) {
	raw := sampleCapture(t, 7)
	r1, _ := NewReader(bytes.NewReader(raw))
	want, err := r1.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewReader(bytes.NewReader(raw))
	got, err := r2.ReadViews(0, 0, netpkt.DecodeHint{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("unbounded chunk read %d packets, ReadAll %d", len(got), len(want))
	}
}
