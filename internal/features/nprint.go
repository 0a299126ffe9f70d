package features

import "lumen/internal/netpkt"

// NPrintConfig selects which protocol sections the nprint representation
// includes — algorithms A01–A04 are four such configurations.
type NPrintConfig struct {
	IPv4    bool
	TCP     bool
	UDP     bool
	ICMP    bool
	Payload int // number of payload bytes to include (0 = none)
}

// Bit section widths in bits, mirroring the nprint tool's fixed layout:
// every packet maps to the same positions whether or not a header is
// present; absent headers encode as -1.
const (
	nprintIPv4Bits = 20 * 8
	nprintTCPBits  = 20 * 8
	nprintUDPBits  = 8 * 8
	nprintICMPBits = 8 * 8
)

// Width returns the feature-vector length for this configuration.
func (c NPrintConfig) Width() int {
	n := 0
	if c.IPv4 {
		n += nprintIPv4Bits
	}
	if c.TCP {
		n += nprintTCPBits
	}
	if c.UDP {
		n += nprintUDPBits
	}
	if c.ICMP {
		n += nprintICMPBits
	}
	n += c.Payload * 8
	return n
}

// Shape is the minimal description of a packet that nprint rendering
// needs: the raw frame, which headers are present, and the payload
// length.
type Shape struct {
	Raw        []byte
	Link       netpkt.LinkType
	HasIPv4    bool
	HasTCP     bool
	HasUDP     bool
	HasICMP    bool
	PayloadLen int
}

// ShapeOf derives the Shape of a packet view, forcing only its header
// pass (nprint reads raw header bytes, never the app layers).
func ShapeOf(v *netpkt.PacketView) Shape {
	_, ip4 := v.IPv4()
	_, tcp := v.TCP()
	_, udp := v.UDP()
	_, icmp := v.ICMP()
	return Shape{
		Raw: v.Data, Link: v.Link,
		HasIPv4: ip4, HasTCP: tcp, HasUDP: udp, HasICMP: icmp,
		PayloadLen: v.PayloadLen(),
	}
}

// FillRow renders one packet's nprint bits into dst, which must have
// length Width(): 1/0 for present header bits, -1 for bits of absent
// sections.
func (c NPrintConfig) FillRow(dst []float64, s Shape) {
	raw := s.Raw
	// Locate header byte ranges inside the raw frame.
	var ipStart, l4Start int = -1, -1
	if s.Link == netpkt.LinkEthernet && len(raw) >= 14 {
		if s.HasIPv4 {
			ipStart = 14
			ihl := 20
			if len(raw) > 14 {
				ihl = int(raw[14]&0x0f) * 4
			}
			l4Start = 14 + ihl
		}
	}
	off := 0
	if c.IPv4 {
		off = fillBits(dst, off, raw, ipStart, 20, s.HasIPv4)
	}
	if c.TCP {
		off = fillBits(dst, off, raw, l4Start, 20, s.HasTCP)
	}
	if c.UDP {
		off = fillBits(dst, off, raw, l4Start, 8, s.HasUDP)
	}
	if c.ICMP {
		off = fillBits(dst, off, raw, l4Start, 8, s.HasICMP)
	}
	if c.Payload > 0 {
		payStart := -1
		if s.PayloadLen > 0 && len(raw) >= s.PayloadLen {
			payStart = len(raw) - s.PayloadLen
		}
		fillBits(dst, off, raw, payStart, c.Payload, payStart >= 0)
	}
}

// fillBits writes nBytes*8 bit features from raw[start:] into dst at
// off, returning the next offset; absent or truncated regions fill
// with -1.
func fillBits(dst []float64, off int, raw []byte, start, nBytes int, present bool) int {
	for i := 0; i < nBytes; i++ {
		idx := start + i
		if !present || start < 0 || idx >= len(raw) {
			for b := 0; b < 8; b++ {
				dst[off] = -1
				off++
			}
			continue
		}
		v := raw[idx]
		for b := 7; b >= 0; b-- {
			dst[off] = float64((v >> uint(b)) & 1)
			off++
		}
	}
	return off
}

// Standard nprint variants as used in the paper's Table 2.
var (
	// NPrintAll is A01: every supported section plus 10 payload bytes.
	NPrintAll = NPrintConfig{IPv4: true, TCP: true, UDP: true, ICMP: true, Payload: 10}
	// NPrintTCPUDPIPv4 is A02.
	NPrintTCPUDPIPv4 = NPrintConfig{IPv4: true, TCP: true, UDP: true}
	// NPrintWithPayload is A03: tcp+udp+ipv4+payload.
	NPrintWithPayload = NPrintConfig{IPv4: true, TCP: true, UDP: true, Payload: 10}
	// NPrintTCPICMPIPv4 is A04.
	NPrintTCPICMPIPv4 = NPrintConfig{IPv4: true, TCP: true, ICMP: true}
)
