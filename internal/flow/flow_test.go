package flow

import (
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"lumen/internal/netpkt"
)

var (
	hostA = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	hostB = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

// tcpPkt builds a serialized TCP packet at the given offset (seconds).
func tcpPkt(t *testing.T, src, dst netip.Addr, sport, dport uint16, flags uint8, sec float64, payload string) *netpkt.Packet {
	t.Helper()
	p := &netpkt.Packet{
		Ts:      time.Unix(0, int64(sec*1e9)),
		Eth:     &netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		IPv4:    &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoTCP, Src: src, Dst: dst},
		TCP:     &netpkt.TCP{SrcPort: sport, DstPort: dport, Flags: flags},
		Payload: []byte(payload),
	}
	if _, err := p.Serialize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func udpPkt(t *testing.T, src, dst netip.Addr, sport, dport uint16, sec float64) *netpkt.Packet {
	t.Helper()
	p := &netpkt.Packet{
		Ts:   time.Unix(0, int64(sec*1e9)),
		Eth:  &netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoUDP, Src: src, Dst: dst},
		UDP:  &netpkt.UDP{SrcPort: sport, DstPort: dport},
	}
	if _, err := p.Serialize(); err != nil {
		t.Fatal(err)
	}
	return p
}

// handshake builds a complete TCP session A:1234 -> B:80 with FIN close.
func handshake(t *testing.T, start float64) []*netpkt.Packet {
	t.Helper()
	return []*netpkt.Packet{
		tcpPkt(t, hostA, hostB, 1234, 80, netpkt.FlagSYN, start, ""),
		tcpPkt(t, hostB, hostA, 80, 1234, netpkt.FlagSYN|netpkt.FlagACK, start+0.01, ""),
		tcpPkt(t, hostA, hostB, 1234, 80, netpkt.FlagACK, start+0.02, ""),
		tcpPkt(t, hostA, hostB, 1234, 80, netpkt.FlagACK|netpkt.FlagPSH, start+0.03, "GET /"),
		tcpPkt(t, hostB, hostA, 80, 1234, netpkt.FlagACK|netpkt.FlagPSH, start+0.04, "200 OK"),
		tcpPkt(t, hostA, hostB, 1234, 80, netpkt.FlagFIN|netpkt.FlagACK, start+0.05, ""),
		tcpPkt(t, hostB, hostA, 80, 1234, netpkt.FlagFIN|netpkt.FlagACK, start+0.06, ""),
		tcpPkt(t, hostA, hostB, 1234, 80, netpkt.FlagACK, start+0.07, ""),
	}
}

func TestUniflowsDirectionality(t *testing.T) {
	pkts := handshake(t, 0)
	flows := Uniflows(pkts, Options{})
	if len(flows) != 2 {
		t.Fatalf("got %d uniflows, want 2 (one per direction)", len(flows))
	}
	var fwd, rev *Uniflow
	for _, f := range flows {
		if f.Tuple.SrcPort == 1234 {
			fwd = f
		} else {
			rev = f
		}
	}
	if fwd == nil || rev == nil {
		t.Fatal("missing a direction")
	}
	if fwd.Pkts != 5 || rev.Pkts != 3 {
		t.Errorf("packet counts fwd=%d rev=%d, want 5/3", fwd.Pkts, rev.Pkts)
	}
	if fwd.Payload != 5 { // "GET /"
		t.Errorf("fwd payload = %d, want 5", fwd.Payload)
	}
}

func TestUniflowIdleTimeoutSplits(t *testing.T) {
	pkts := []*netpkt.Packet{
		udpPkt(t, hostA, hostB, 500, 53, 0),
		udpPkt(t, hostA, hostB, 500, 53, 1),
		udpPkt(t, hostA, hostB, 500, 53, 200), // beyond 64s idle
	}
	flows := Uniflows(pkts, Options{})
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2 after idle split", len(flows))
	}
	if flows[0].Pkts != 2 || flows[1].Pkts != 1 {
		t.Errorf("split sizes %d/%d, want 2/1", flows[0].Pkts, flows[1].Pkts)
	}
}

func TestUniflowCustomTimeout(t *testing.T) {
	pkts := []*netpkt.Packet{
		udpPkt(t, hostA, hostB, 500, 53, 0),
		udpPkt(t, hostA, hostB, 500, 53, 2),
	}
	flows := Uniflows(pkts, Options{IdleTimeout: time.Second})
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2 with 1s timeout", len(flows))
	}
}

func TestConnectionMergesDirections(t *testing.T) {
	pkts := handshake(t, 0)
	conns := Connections(pkts, Options{})
	if len(conns) != 1 {
		t.Fatalf("got %d connections, want 1", len(conns))
	}
	c := conns[0]
	if c.Tuple.SrcPort != 1234 || c.Tuple.DstPort != 80 {
		t.Errorf("originator should be A:1234 (first packet), got %v", c.Tuple)
	}
	if c.OrigPkts != 5 || c.RespPkts != 3 {
		t.Errorf("direction counts %d/%d, want 5/3", c.OrigPkts, c.RespPkts)
	}
	if c.State != StateSF {
		t.Errorf("state = %v, want SF (clean close)", c.State)
	}
	if c.OrigPayload != 5 || c.RespPayload != 6 {
		t.Errorf("payloads %d/%d, want 5/6", c.OrigPayload, c.RespPayload)
	}
	if c.Stats != nil {
		t.Errorf("plain assembly attached %d stats, want none", len(c.Stats))
	}
}

func TestConnectionStateS0(t *testing.T) {
	pkts := []*netpkt.Packet{
		tcpPkt(t, hostA, hostB, 40000, 23, netpkt.FlagSYN, 0, ""),
		tcpPkt(t, hostA, hostB, 40000, 23, netpkt.FlagSYN, 1, ""),
	}
	conns := Connections(pkts, Options{})
	if len(conns) != 1 || conns[0].State != StateS0 {
		t.Fatalf("state = %v, want S0 for unanswered SYN", conns[0].State)
	}
}

func TestConnectionStateREJ(t *testing.T) {
	pkts := []*netpkt.Packet{
		tcpPkt(t, hostA, hostB, 40000, 23, netpkt.FlagSYN, 0, ""),
		tcpPkt(t, hostB, hostA, 23, 40000, netpkt.FlagRST|netpkt.FlagACK, 0.01, ""),
	}
	conns := Connections(pkts, Options{})
	if conns[0].State != StateREJ {
		t.Fatalf("state = %v, want REJ for SYN->RST", conns[0].State)
	}
}

func TestConnectionStateRSTO(t *testing.T) {
	pkts := []*netpkt.Packet{
		tcpPkt(t, hostA, hostB, 40000, 80, netpkt.FlagSYN, 0, ""),
		tcpPkt(t, hostB, hostA, 80, 40000, netpkt.FlagSYN|netpkt.FlagACK, 0.01, ""),
		tcpPkt(t, hostA, hostB, 40000, 80, netpkt.FlagRST, 0.02, ""),
	}
	conns := Connections(pkts, Options{})
	if conns[0].State != StateRSTO {
		t.Fatalf("state = %v, want RSTO", conns[0].State)
	}
}

func TestConnectionUDPIsOTH(t *testing.T) {
	pkts := []*netpkt.Packet{
		udpPkt(t, hostA, hostB, 500, 53, 0),
		udpPkt(t, hostB, hostA, 53, 500, 0.01),
	}
	conns := Connections(pkts, Options{})
	if len(conns) != 1 {
		t.Fatalf("got %d connections, want 1 (bidirectional UDP merges)", len(conns))
	}
	if conns[0].State != StateOTH {
		t.Errorf("state = %v, want OTH for UDP", conns[0].State)
	}
}

func TestConnectionsSkipNonIP(t *testing.T) {
	arp := &netpkt.Packet{
		Eth: &netpkt.Ethernet{},
		ARP: &netpkt.ARP{Op: 1, SenderIP: hostA, TargetIP: hostB},
	}
	if _, err := arp.Serialize(); err != nil {
		t.Fatal(err)
	}
	conns := Connections([]*netpkt.Packet{arp}, Options{})
	if len(conns) != 0 {
		t.Fatalf("ARP produced %d connections, want 0", len(conns))
	}
}

func TestConnectionsMultipleSessions(t *testing.T) {
	var pkts []*netpkt.Packet
	pkts = append(pkts, handshake(t, 0)...)
	// Second session with a different source port, overlapping in time.
	for _, p := range handshake(t, 0.005) {
		if p.TCP.SrcPort == 1234 {
			p.TCP.SrcPort = 1235
		} else {
			p.TCP.DstPort = 1235
		}
		if _, err := p.Serialize(); err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	// Interleave by time: Connections expects time order.
	sortByTime(pkts)
	conns := Connections(pkts, Options{})
	if len(conns) != 2 {
		t.Fatalf("got %d connections, want 2", len(conns))
	}
	for _, c := range conns {
		if c.State != StateSF {
			t.Errorf("state = %v, want SF", c.State)
		}
	}
}

func sortByTime(pkts []*netpkt.Packet) {
	for i := 1; i < len(pkts); i++ {
		for j := i; j > 0 && pkts[j].Ts.Before(pkts[j-1].Ts); j-- {
			pkts[j], pkts[j-1] = pkts[j-1], pkts[j]
		}
	}
}

func TestUniflowDeterministicOrder(t *testing.T) {
	pkts := handshake(t, 0)
	a := Uniflows(pkts, Options{})
	b := Uniflows(pkts, Options{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic flow count")
	}
	for i := range a {
		if a[i].Tuple != b[i].Tuple {
			t.Fatal("nondeterministic flow order")
		}
	}
}

// TestConnectionSizeHolds: a flow holds its counters and a slice header
// for the stats a caller attaches, and no stat array of its own (224 B a
// connection and 176 B a uniflow on 64-bit platforms, both size classes
// of the allocator), so an assembler that attaches no stats (a sink whose
// readers take only counters, the daemon's conn-log, pcapinfo) retains
// counters alone.
func TestConnectionSizeHolds(t *testing.T) {
	if n := unsafe.Sizeof(Connection{}); n > 224 {
		t.Errorf("a Connection is %d B, above 224", n)
	}
	if n := unsafe.Sizeof(Uniflow{}); n > 176 {
		t.Errorf("a Uniflow is %d B, above 176", n)
	}
}
