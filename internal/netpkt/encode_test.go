package netpkt

import (
	"net/netip"
	"testing"
	"time"
)

func TestTCPOptionsRoundTrip(t *testing.T) {
	p := &Packet{
		Eth: testEth(),
		IPv4: &IPv4{
			TTL: 64, Protocol: ProtoTCP,
			Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2),
		},
		TCP: &TCP{
			SrcPort: 1000, DstPort: 2000, Flags: FlagSYN,
			MSS: 1460, WScale: 7, SACKOK: true,
		},
		Payload: []byte("x"),
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.TCP == nil {
		t.Fatal("tcp missing")
	}
	if q.TCP.MSS != 1460 || q.TCP.WScale != 7 || !q.TCP.SACKOK {
		t.Fatalf("options mismatch: %+v", q.TCP)
	}
	if q.TCP.DataOff <= 5 {
		t.Errorf("DataOff = %d, want > 5 with options", q.TCP.DataOff)
	}
	if string(q.Payload) != "x" {
		t.Errorf("payload = %q after options", q.Payload)
	}
	if !ipv4ChecksumOK(q) {
		t.Error("ipv4 checksum broke with options")
	}
}

func TestTCPWithoutOptionsStaysMinimal(t *testing.T) {
	p := &Packet{
		Eth:  testEth(),
		IPv4: &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
		TCP:  &TCP{SrcPort: 1, DstPort: 2},
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.TCP.DataOff != 5 {
		t.Errorf("DataOff = %d, want 5", q.TCP.DataOff)
	}
}

func TestTCPOptionsMalformedStops(t *testing.T) {
	var tc TCP
	tc.parseOptions([]byte{2, 99}) // length overruns
	if tc.MSS != 0 {
		t.Error("overrunning option must be ignored")
	}
	tc.parseOptions([]byte{1, 1, 0, 2, 4, 0x05, 0xb4}) // NOPs then EOL stops before MSS
	if tc.MSS != 0 {
		t.Error("options after EOL must be ignored")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	src := netip.MustParseAddr("fd00::1")
	dst := netip.MustParseAddr("fd00::2")
	p := &Packet{
		Eth: &Ethernet{EtherType: EtherTypeIPv6},
		IPv6: &IPv6{
			NextHeader: ProtoUDP, HopLimit: 64,
			TrafficClass: 0xA5, FlowLabel: 0x12345,
			Src: src, Dst: dst,
		},
		UDP:     &UDP{SrcPort: 546, DstPort: 547},
		Payload: []byte("dhcpv6ish"),
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.IPv6 == nil {
		t.Fatal("ipv6 missing")
	}
	if q.IPv6.Src != src || q.IPv6.Dst != dst {
		t.Fatalf("addresses mismatch: %v -> %v", q.IPv6.Src, q.IPv6.Dst)
	}
	if q.IPv6.TrafficClass != 0xA5 || q.IPv6.FlowLabel != 0x12345 || q.IPv6.HopLimit != 64 {
		t.Fatalf("header mismatch: %+v", q.IPv6)
	}
	if q.UDP == nil || q.UDP.DstPort != 547 {
		t.Fatalf("udp mismatch: %+v", q.UDP)
	}
	if string(q.Payload) != "dhcpv6ish" {
		t.Errorf("payload = %q", q.Payload)
	}
	ft, ok := q.Tuple()
	if !ok || ft.Proto != ProtoUDP || ft.SrcIP != src {
		t.Errorf("tuple = %+v ok=%v", ft, ok)
	}
}
