package features

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"lumen/internal/netpkt"
)

func TestIncStatUndampedMatchesBatch(t *testing.T) {
	s := NewIncStat(0)
	vals := []float64{1, 2, 3, 4, 5, 100}
	for i, v := range vals {
		s.Insert(v, float64(i))
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var variance float64
	for _, v := range vals {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(vals))
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Errorf("mean = %v, want %v", s.Mean(), mean)
	}
	if math.Abs(s.Var()-variance) > 1e-9 {
		t.Errorf("var = %v, want %v", s.Var(), variance)
	}
	if s.Weight() != 6 {
		t.Errorf("weight = %v, want 6", s.Weight())
	}
}

func TestIncStatDampingForgetsHistory(t *testing.T) {
	s := NewIncStat(1) // half-life 1s
	s.Insert(100, 0)
	s.Insert(0, 20) // 20 half-lives later: the 100 is ~gone
	if m := s.Mean(); m > 0.01 {
		t.Errorf("damped mean = %v, want ~0", m)
	}
	// Weight decays toward the recent observation's unit weight.
	if w := s.Weight(); math.Abs(w-1) > 0.01 {
		t.Errorf("damped weight = %v, want ~1", w)
	}
}

func TestIncStatDampedWeightHalves(t *testing.T) {
	s := NewIncStat(1)
	s.Insert(5, 0)
	s.Insert(5, 1) // exactly one half-life later: the first insert counts half
	if w := s.Weight(); math.Abs(w-1.5) > 1e-9 {
		t.Errorf("weight one half-life on = %v, want 0.5 + 1", w)
	}
}

func TestIncStatVarNeverNegativeProperty(t *testing.T) {
	f := func(vals []float64, lambdaRaw uint8) bool {
		s := NewIncStat(float64(lambdaRaw%5) * 0.1)
		ts := 0.0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			s.Insert(v, ts)
			ts += 0.1
			if s.Var() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIncStat2DPerfectCorrelation(t *testing.T) {
	s := NewIncStat2D(0)
	for i := 0; i < 100; i++ {
		v := float64(i)
		s.Insert(v, 2*v, float64(i))
	}
	if c := s.Corr(); c < 0.95 {
		t.Errorf("corr = %v, want ~1 for linearly related streams", c)
	}
	if s.Cov() <= 0 {
		t.Errorf("cov = %v, want > 0", s.Cov())
	}
}

func TestIncStat2DAntiCorrelation(t *testing.T) {
	s := NewIncStat2D(0)
	for i := 0; i < 100; i++ {
		v := float64(i)
		s.Insert(v, -v, float64(i))
	}
	if c := s.Corr(); c > -0.9 {
		t.Errorf("corr = %v, want ~-1", c)
	}
}

func TestIncStat2DMagnitudeRadius(t *testing.T) {
	s := NewIncStat2D(0)
	for i := 0; i < 50; i++ {
		s.Insert(3, 4, float64(i))
	}
	if m := s.Magnitude(); math.Abs(m-5) > 1e-9 {
		t.Errorf("magnitude = %v, want 5", m)
	}
	if r := s.Radius(); r != 0 {
		t.Errorf("radius of constant streams = %v, want 0", r)
	}
}

func TestCounterEntropy(t *testing.T) {
	c := NewCounter()
	for i := 0; i < 8; i++ {
		c.Add("a")
		c.Add("b")
	}
	if h := c.Entropy(); math.Abs(h-1) > 1e-9 {
		t.Errorf("uniform 2-symbol entropy = %v, want 1 bit", h)
	}
	if c.Distinct() != 2 || c.Total() != 16 {
		t.Errorf("distinct/total = %d/%v", c.Distinct(), c.Total())
	}
	if ne := c.NormalizedEntropy(); math.Abs(ne-1) > 1e-9 {
		t.Errorf("normalized entropy = %v, want 1", ne)
	}
}

func TestCounterSingleSymbolEntropyZero(t *testing.T) {
	c := NewCounter()
	c.Add("only")
	c.Add("only")
	if h := c.Entropy(); h != 0 {
		t.Errorf("entropy = %v, want 0", h)
	}
	if ne := c.NormalizedEntropy(); ne != 0 {
		t.Errorf("normalized entropy = %v, want 0", ne)
	}
}

func TestEntropyOfMaximal(t *testing.T) {
	h := EntropyOf([]string{"a", "b", "c", "d"})
	if math.Abs(h-2) > 1e-9 {
		t.Errorf("entropy = %v, want 2 bits", h)
	}
}

// viewOf wraps a packet's wire bytes (empty for unserialized packets) in
// the view nprint renders from.
func viewOf(p *netpkt.Packet) *netpkt.PacketView {
	var v netpkt.PacketView
	v.Reset(p.Data, p.Link, p.Ts)
	return &v
}

func buildTCPPacket(t *testing.T) *netpkt.Packet {
	t.Helper()
	p := &netpkt.Packet{
		Eth: &netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		IPv4: &netpkt.IPv4{
			TTL: 64, Protocol: netpkt.ProtoTCP,
			Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		},
		TCP:     &netpkt.TCP{SrcPort: 0xABCD, DstPort: 80, Flags: netpkt.FlagSYN},
		Payload: []byte{0xFF, 0x00},
	}
	if _, err := p.Serialize(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNPrintWidths(t *testing.T) {
	if w := NPrintTCPUDPIPv4.Width(); w != 160+160+64 {
		t.Errorf("A02 width = %d, want 384", w)
	}
	if w := NPrintAll.Width(); w != 160+160+64+64+80 {
		t.Errorf("A01 width = %d, want 528", w)
	}
}

func TestNPrintVectorLengthAndValues(t *testing.T) {
	p := buildTCPPacket(t)
	v := NPrintTCPUDPIPv4.Vector(viewOf(p))
	if len(v) != NPrintTCPUDPIPv4.Width() {
		t.Fatalf("vector length %d != width %d", len(v), NPrintTCPUDPIPv4.Width())
	}
	for i, b := range v {
		if b != 0 && b != 1 && b != -1 {
			t.Fatalf("bit %d = %v, want in {-1,0,1}", i, b)
		}
	}
	// UDP section must be all -1 for a TCP packet.
	udpStart := 160 + 160
	for i := udpStart; i < udpStart+64; i++ {
		if v[i] != -1 {
			t.Fatalf("udp bit %d = %v, want -1 (absent)", i, v[i])
		}
	}
	// IPv4 version nibble = 0100: first four bits of the IP section.
	if v[0] != 0 || v[1] != 1 || v[2] != 0 || v[3] != 0 {
		t.Errorf("ip version bits = %v, want 0100", v[:4])
	}
	// TCP source port 0xABCD = 1010 1011 1100 1101.
	tcpStart := 160
	wantPort := []float64{1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1}
	for i, w := range wantPort {
		if v[tcpStart+i] != w {
			t.Fatalf("tcp port bit %d = %v, want %v", i, v[tcpStart+i], w)
		}
	}
}

func TestNPrintPayloadSection(t *testing.T) {
	p := buildTCPPacket(t)
	cfg := NPrintConfig{Payload: 2}
	v := cfg.Vector(viewOf(p))
	if len(v) != 16 {
		t.Fatalf("len = %d, want 16", len(v))
	}
	// Payload bytes 0xFF,0x00.
	for i := 0; i < 8; i++ {
		if v[i] != 1 {
			t.Fatalf("payload bit %d = %v, want 1", i, v[i])
		}
	}
	for i := 8; i < 16; i++ {
		if v[i] != 0 {
			t.Fatalf("payload bit %d = %v, want 0", i, v[i])
		}
	}
}

func TestNPrintConsistentWidthAcrossPacketsProperty(t *testing.T) {
	// Vectors must be fixed-width regardless of packet contents — the
	// defining property of the nprint representation.
	cfgs := []NPrintConfig{NPrintAll, NPrintTCPUDPIPv4, NPrintWithPayload, NPrintTCPICMPIPv4}
	pkts := []*netpkt.Packet{
		buildTCPPacket(t),
		{Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Beacon}},
		{},
	}
	for _, cfg := range cfgs {
		for i, p := range pkts {
			if got := len(cfg.Vector(viewOf(p))); got != cfg.Width() {
				t.Errorf("cfg %+v packet %d: len=%d want %d", cfg, i, got, cfg.Width())
			}
		}
	}
}
