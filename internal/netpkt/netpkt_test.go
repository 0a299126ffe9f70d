package netpkt

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func ip4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

func testEth() *Ethernet {
	return &Ethernet{
		Dst:       MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		Src:       MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01},
		EtherType: EtherTypeIPv4,
	}
}

func TestTCPRoundTrip(t *testing.T) {
	p := &Packet{
		Ts:  time.Unix(100, 0),
		Eth: testEth(),
		IPv4: &IPv4{
			TTL: 64, Protocol: ProtoTCP,
			Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2),
			ID: 42,
		},
		TCP: &TCP{
			SrcPort: 12345, DstPort: 80,
			Seq: 1000, Ack: 2000,
			Flags: FlagSYN | FlagACK, Window: 65535,
		},
		Payload: []byte("GET / HTTP/1.1\r\n"),
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, p.Ts)
	if q.TruncatedLayer != "" {
		t.Fatalf("decode truncated at %q", q.TruncatedLayer)
	}
	if q.Eth == nil || q.Eth.Src != p.Eth.Src || q.Eth.EtherType != EtherTypeIPv4 {
		t.Fatalf("ethernet mismatch: %+v", q.Eth)
	}
	if q.IPv4 == nil || q.IPv4.Src != p.IPv4.Src || q.IPv4.Dst != p.IPv4.Dst || q.IPv4.TTL != 64 || q.IPv4.ID != 42 {
		t.Fatalf("ipv4 mismatch: %+v", q.IPv4)
	}
	if q.TCP == nil || q.TCP.SrcPort != 12345 || q.TCP.DstPort != 80 ||
		q.TCP.Seq != 1000 || q.TCP.Ack != 2000 || !q.TCP.HasFlag(FlagSYN|FlagACK) {
		t.Fatalf("tcp mismatch: %+v", q.TCP)
	}
	if string(q.Payload) != "GET / HTTP/1.1\r\n" {
		t.Fatalf("payload mismatch: %q", q.Payload)
	}
	if !ipv4ChecksumOK(q) {
		t.Error("ipv4 checksum did not verify")
	}
}

func TestUDPDNSRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: testEth(),
		IPv4: &IPv4{
			TTL: 64, Protocol: ProtoUDP,
			Src: ip4(192, 168, 1, 10), Dst: ip4(8, 8, 8, 8),
		},
		UDP:     &UDP{SrcPort: 5353, DstPort: 53},
		Payload: EncodeDNSQuery(7, "camera.iot.example.com", false),
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.UDP == nil || q.UDP.DstPort != 53 {
		t.Fatalf("udp mismatch: %+v", q.UDP)
	}
	if q.DNS == nil {
		t.Fatal("dns layer not decoded")
	}
	if q.DNS.ID != 7 || q.DNS.QR || q.DNS.QDCount != 1 {
		t.Fatalf("dns header mismatch: %+v", q.DNS)
	}
	if names := dnsNames(*q.DNS); len(names) != 1 || names[0] != "camera.iot.example.com" {
		t.Fatalf("dns names mismatch: %v", names)
	}
}

func TestDNSResponseFlag(t *testing.T) {
	b := EncodeDNSQuery(9, "a.b", true)
	d, ok := parseDNS(b)
	if !ok || !d.QR || d.ANCount != 1 {
		t.Fatalf("response decode mismatch: %+v ok=%v", d, ok)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: testEth(),
		IPv4: &IPv4{
			TTL: 64, Protocol: ProtoICMP,
			Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 99),
		},
		ICMP:    &ICMP{Type: 8, Code: 0, ID: 3, Seq: 4},
		Payload: []byte("ping"),
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.ICMP == nil || q.ICMP.Type != 8 || q.ICMP.ID != 3 || q.ICMP.Seq != 4 {
		t.Fatalf("icmp mismatch: %+v", q.ICMP)
	}
	if string(q.Payload) != "ping" {
		t.Fatalf("payload mismatch: %q", q.Payload)
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: &Ethernet{Dst: MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Src: MAC{2, 0, 0, 0, 0, 9}},
		ARP: &ARP{
			Op:       1,
			SenderHW: MAC{2, 0, 0, 0, 0, 9},
			SenderIP: ip4(10, 0, 0, 9),
			TargetIP: ip4(10, 0, 0, 1),
		},
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.ARP == nil || q.ARP.Op != 1 || q.ARP.SenderIP != ip4(10, 0, 0, 9) || q.ARP.TargetIP != ip4(10, 0, 0, 1) {
		t.Fatalf("arp mismatch: %+v", q.ARP)
	}
	if _, ok := q.Tuple(); ok {
		t.Error("ARP packet should not produce a five-tuple")
	}
}

func TestDot11RoundTrip(t *testing.T) {
	p := &Packet{
		Dot11: &Dot11{
			Subtype: Dot11Deauth,
			Addr1:   MAC{1, 2, 3, 4, 5, 6},
			Addr2:   MAC{6, 5, 4, 3, 2, 1},
			Addr3:   MAC{9, 9, 9, 9, 9, 9},
			Seq:     77,
			Retry:   true,
		},
		Payload: []byte{0x07, 0x00}, // reason code
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkDot11, time.Time{})
	d := q.Dot11
	if d == nil || d.Subtype != Dot11Deauth || d.Addr1 != p.Dot11.Addr1 || d.Seq != 77 || !d.Retry {
		t.Fatalf("dot11 mismatch: %+v", d)
	}
	if !d.Subtype.IsManagement() {
		t.Error("deauth should be management")
	}
	if q.IPv4 != nil {
		t.Error("802.11 mgmt frame must not expose an IP layer")
	}
}

func TestDot11DataSubtype(t *testing.T) {
	p := &Packet{Dot11: &Dot11{Subtype: Dot11Data}}
	raw, _ := p.Serialize()
	q := Decode(raw, LinkDot11, time.Time{})
	if q.Dot11.Subtype != Dot11Data {
		t.Fatalf("subtype = %v, want data", q.Dot11.Subtype)
	}
	if q.Dot11.Subtype.IsManagement() {
		t.Error("data frame should not be management")
	}
}

func TestFiveTupleCanonicalSymmetry(t *testing.T) {
	f := FiveTuple{
		SrcIP: ip4(10, 0, 0, 2), DstIP: ip4(10, 0, 0, 1),
		SrcPort: 443, DstPort: 51000, Proto: ProtoTCP,
	}
	if f.Canonical() != f.Reverse().Canonical() {
		t.Error("canonical form must be direction-independent")
	}
	if f.Reverse().Reverse() != f {
		t.Error("double reverse must be identity")
	}
}

func TestTuplePortsAndProto(t *testing.T) {
	p := &Packet{
		Eth:  testEth(),
		IPv4: &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
		TCP:  &TCP{SrcPort: 1111, DstPort: 80},
	}
	if _, err := p.Serialize(); err != nil {
		t.Fatal(err)
	}
	f, ok := p.Tuple()
	if !ok {
		t.Fatal("expected tuple")
	}
	if f.SrcPort != 1111 || f.DstPort != 80 || f.Proto != ProtoTCP {
		t.Fatalf("tuple mismatch: %+v", f)
	}
}

func TestDecodeTruncatedInputs(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"short-ethernet", []byte{1, 2, 3}, "ethernet"},
		{"short-dot11", []byte{1, 2, 3}, "dot11"},
	}
	for _, c := range cases {
		link := LinkEthernet
		if c.name == "short-dot11" {
			link = LinkDot11
		}
		q := Decode(c.data, link, time.Time{})
		if q.TruncatedLayer != c.want {
			t.Errorf("%s: TruncatedLayer = %q, want %q", c.name, q.TruncatedLayer, c.want)
		}
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(data []byte, dot11 bool) bool {
		link := LinkEthernet
		if dot11 {
			link = LinkDot11
		}
		p := Decode(data, link, time.Time{})
		_ = p.WireLen()
		_, _ = p.Tuple()
		return true // reaching here without a panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2 -> checksum 220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := internetChecksum(data, 0); got != 0x220d {
		t.Errorf("checksum = %#x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if got := internetChecksum([]byte{0xff}, 0); got != ^uint16(0xff00) {
		t.Errorf("odd-length checksum = %#x", got)
	}
}

func TestWireLenFallback(t *testing.T) {
	p := &Packet{
		Eth:  testEth(),
		IPv4: &IPv4{Length: 40, Protocol: ProtoTCP, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
	}
	if got := p.WireLen(); got != 54 {
		t.Errorf("WireLen = %d, want 54 (14 eth + 40 ip-total)", got)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String() = %q", got)
	}
}

func TestIPv4FragmentHasNoL4(t *testing.T) {
	p := &Packet{
		Eth: testEth(),
		IPv4: &IPv4{
			TTL: 64, Protocol: ProtoUDP, FragOff: 100,
			Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2),
		},
		UDP: &UDP{SrcPort: 1, DstPort: 2},
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.UDP != nil {
		t.Error("non-first fragment must not decode an L4 header")
	}
}

// ipv4ChecksumOK recomputes the IPv4 header checksum over a packet's raw
// bytes and reports whether it is consistent. It requires raw Data.
func ipv4ChecksumOK(p *Packet) bool {
	if p.IPv4 == nil || len(p.Data) < 34 || p.Link != LinkEthernet {
		return false
	}
	hdr := p.Data[14:]
	ihl := int(hdr[0]&0x0f) * 4
	if len(hdr) < ihl {
		return false
	}
	return internetChecksum(hdr[:ihl], 0) == 0
}

// dnsNames builds a DNS message's dotted question names: at most 16, up
// to the first name that is truncated or compressed (the simulator's
// encoder never compresses).
func dnsNames(d DNS) []string {
	var names []string
	b, off := d.questions, 0
	for q := 0; q < int(d.QDCount) && q < 16 && off <= len(b); q++ {
		var name []byte
		for off < len(b) && b[off] != 0 {
			l := int(b[off])
			if l >= 0xc0 || off+1+l > len(b) {
				return names
			}
			if len(name) > 0 {
				name = append(name, '.')
			}
			name = append(name, b[off+1:off+1+l]...)
			off += 1 + l
		}
		if off >= len(b) {
			return names // no terminating zero label
		}
		names = append(names, string(name))
		off += 5 // the zero label, qtype and qclass
	}
	return names
}
