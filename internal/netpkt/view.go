package netpkt

// view.go is the one packet parser. A PacketView sits directly on the
// raw record bytes (typically a subslice of an mmap'ed capture) and
// decodes layers on first touch: L2–L4 headers in one inline pass into
// value fields (no per-layer pointer allocations), DNS/HTTP/MQTT only
// when an accessor actually asks, in place over the payload (the app
// pass keeps a presence bit each, and HTTP's header fields). Decode is
// this header pass materialized. The independent reference is the eager
// layer walk refDecode (decode_oracle_test.go): Materialize() must equal
// it for any input, each app accessor its layer, and the differential
// fuzz targets in view_fuzz_test.go hold it to that.

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// PacketView state and layer-presence bits (one word for both).
const (
	vHdrs uint16 = 1 << iota // ensureHeaders ran
	vApp                     // ensureApp ran
	vPay                     // payload region present (may be empty)
	vEth
	vARP
	vIP4
	vIP6
	vTCP
	vUDP
	vICMP
	vDot11
	vDNS
	vHTTP
	vMQTT
)

// AppMask selects application-layer protocols in a DecodeHint.
type AppMask uint8

// Application layers a plan may require.
const (
	AppDNS AppMask = 1 << iota
	AppHTTP
	AppMQTT
)

// DecodeHint tells a view producer how deep consumers will look, so the
// decode work can happen up front on the producing goroutine (overlapping
// with downstream compute) instead of lazily on first access. Headers
// requests the L2–L4 pass; Apps requests app-layer parsing for packets
// whose ports gate onto one of the masked protocols. The hint is an
// optimization only — accessors still decode on demand if it was wrong.
type DecodeHint struct {
	Headers bool
	Apps    AppMask
}

// Any reports whether the hint requests any decoding at all.
func (h DecodeHint) Any() bool { return h.Headers || h.Apps != 0 }

// String names the depth: "metadata" (nothing parsed), "headers",
// "headers+dns", ...
func (h DecodeHint) String() string {
	s := "metadata"
	if h.Headers {
		s = "headers"
	}
	for _, app := range []struct {
		mask AppMask
		name string
	}{{AppDNS, "dns"}, {AppHTTP, "http"}, {AppMQTT, "mqtt"}} {
		if h.Apps&app.mask != 0 {
			s += "+" + app.name
		}
	}
	return s
}

// Union returns the hint that covers both h and o.
func (h DecodeHint) Union(o DecodeHint) DecodeHint {
	return DecodeHint{Headers: h.Headers || o.Headers, Apps: h.Apps | o.Apps}
}

// PacketView is one packet decoded lazily over its raw bytes. The zero
// value is invalid; initialize with Reset. Data is borrowed, not owned:
// a view into an mmap'ed capture is valid only until the mapping is
// released (for chunked sources, until the chunk is recycled or the
// source closed), and a view must not outlive the buffer it was reset
// onto. Views are not safe for concurrent use — lazy decoding mutates
// internal state even through read accessors.
type PacketView struct {
	// Ts is the capture timestamp; Link the capture link type; Data the
	// raw wire bytes (borrowed).
	Ts   time.Time
	Link LinkType
	Data []byte

	flags uint16
	trunc string
	// payOff/payEnd delimit the application payload inside Data when the
	// vPay bit is set.
	payOff, payEnd int32

	eth   Ethernet
	arp   ARP
	ip4   IPv4
	ip6   IPv6
	tcp   TCP
	udp   UDP
	icmp  ICMP
	dot11 Dot11

	// httpHost, httpUA and httpLen are the HTTP header fields, kept by
	// the app pass so that HTTP() rescans only the start line.
	httpHost, httpUA paySpan
	httpLen          int
}

// Reset re-points the view at a new record, clearing all decoded state.
func (v *PacketView) Reset(data []byte, link LinkType, ts time.Time) {
	*v = PacketView{Ts: ts, Link: link, Data: data}
}

// Predecode performs the decoding a DecodeHint asks for. Producers call
// it on the decode goroutine so consumers find the layers already parsed.
func (v *PacketView) Predecode(h DecodeHint) {
	if !h.Any() {
		return
	}
	v.ensureHeaders()
	if h.Apps != 0 && v.flags&vApp == 0 && h.Apps&v.appGate() != 0 {
		v.ensureApp()
	}
}

// HeadersDecoded reports whether the L2–L4 header pass has run (lazily
// or via Predecode) — the signal behind lumen_decode_lazy_skips_total.
func (v *PacketView) HeadersDecoded() bool { return v.flags&vHdrs != 0 }

// AppDecoded reports whether the app-layer pass has run.
func (v *PacketView) AppDecoded() bool { return v.flags&vApp != 0 }

// WireLen returns the on-wire record length. It never triggers decoding.
func (v *PacketView) WireLen() int { return len(v.Data) }

// Eth returns the Ethernet header, decoding on first touch; ok is false
// when the layer is absent. The pointer aliases view-internal state and
// is valid only as long as the view (and must not be mutated).
func (v *PacketView) Eth() (*Ethernet, bool) {
	v.ensureHeaders()
	return &v.eth, v.flags&vEth != 0
}

// ARP returns the ARP layer (see Eth for pointer lifetime).
func (v *PacketView) ARP() (*ARP, bool) {
	v.ensureHeaders()
	return &v.arp, v.flags&vARP != 0
}

// IPv4 returns the IPv4 header (see Eth for pointer lifetime).
func (v *PacketView) IPv4() (*IPv4, bool) {
	v.ensureHeaders()
	return &v.ip4, v.flags&vIP4 != 0
}

// TCP returns the TCP header (see Eth for pointer lifetime).
func (v *PacketView) TCP() (*TCP, bool) {
	v.ensureHeaders()
	return &v.tcp, v.flags&vTCP != 0
}

// UDP returns the UDP header (see Eth for pointer lifetime).
func (v *PacketView) UDP() (*UDP, bool) {
	v.ensureHeaders()
	return &v.udp, v.flags&vUDP != 0
}

// ICMP returns the ICMP header (see Eth for pointer lifetime).
func (v *PacketView) ICMP() (*ICMP, bool) {
	v.ensureHeaders()
	return &v.icmp, v.flags&vICMP != 0
}

// Dot11 returns the 802.11 header (see Eth for pointer lifetime).
func (v *PacketView) Dot11() (*Dot11, bool) {
	v.ensureHeaders()
	return &v.dot11, v.flags&vDot11 != 0
}

// DNS returns the DNS message, forcing the app-layer pass, which only
// records whether there is one: each call decodes it in place again.
// It aliases Data, like Payload. Once the pass has run, a packet
// without the layer costs one inlined flag test.
func (v *PacketView) DNS() (DNS, bool) {
	if v.flags&(vApp|vDNS) == vApp {
		return DNS{}, false
	}
	return v.dns()
}

// HTTP returns the HTTP message (see DNS). The app pass keeps its
// header fields, so a call rescans only the start line.
func (v *PacketView) HTTP() (HTTP, bool) {
	if v.flags&(vApp|vHTTP) == vApp {
		return HTTP{}, false
	}
	return v.http()
}

// MQTT returns the MQTT message (see DNS).
func (v *PacketView) MQTT() (MQTT, bool) {
	if v.flags&(vApp|vMQTT) == vApp {
		return MQTT{}, false
	}
	return v.mqtt()
}

// dns, http and mqtt are the accessors' out-of-line halves: the app
// pass if it has not run, then the decode.
func (v *PacketView) dns() (d DNS, ok bool) {
	v.ensureApp()
	ok = v.flags&vDNS != 0 && decodeDNS(v.Payload(), &d)
	return d, ok
}

func (v *PacketView) http() (h HTTP, ok bool) {
	v.ensureApp()
	if v.flags&vHTTP == 0 {
		return h, false
	}
	pay := v.Payload()
	decodeHTTP(pay, &h, false)
	h.Host, h.UserAgent, h.ContentLength = v.httpHost.in(pay), v.httpUA.in(pay), v.httpLen
	return h, true
}

func (v *PacketView) mqtt() (m MQTT, ok bool) {
	v.ensureApp()
	ok = v.flags&vMQTT != 0 && decodeMQTT(v.Payload(), &m)
	return m, ok
}

// paySpan is a subslice of the payload (the offset of s within pay,
// which it must be a subslice of) and its length, -1 for a nil slice.
type paySpan struct{ off, n int32 }

func spanOf(pay, s []byte) paySpan {
	if s == nil {
		return paySpan{0, -1}
	}
	return paySpan{int32(cap(pay) - cap(s)), int32(len(s))}
}

func (s paySpan) in(pay []byte) []byte {
	if s.n < 0 {
		return nil
	}
	return pay[s.off : s.off+s.n]
}

// Payload returns the application payload region of Data. Like
// Packet.Payload it may be non-nil yet empty on non-first IP fragments.
func (v *PacketView) Payload() []byte {
	v.ensureHeaders()
	if v.flags&vPay == 0 {
		return nil
	}
	return v.Data[v.payOff:v.payEnd]
}

// PayloadLen returns len(Payload) without materializing the slice.
func (v *PacketView) PayloadLen() int {
	v.ensureHeaders()
	return int(v.payEnd - v.payOff)
}

// SrcIP mirrors Packet.SrcIP: the network-layer source address, falling
// back to ARP's sender IP; zero Addr when absent.
func (v *PacketView) SrcIP() netip.Addr {
	v.ensureHeaders()
	switch {
	case v.flags&vIP4 != 0:
		return v.ip4.Src
	case v.flags&vIP6 != 0:
		return v.ip6.Src
	case v.flags&vARP != 0:
		return v.arp.SenderIP
	}
	return netip.Addr{}
}

// DstIP mirrors Packet.DstIP.
func (v *PacketView) DstIP() netip.Addr {
	v.ensureHeaders()
	switch {
	case v.flags&vIP4 != 0:
		return v.ip4.Dst
	case v.flags&vIP6 != 0:
		return v.ip6.Dst
	case v.flags&vARP != 0:
		return v.arp.TargetIP
	}
	return netip.Addr{}
}

// SrcPort mirrors Packet.SrcPort.
func (v *PacketView) SrcPort() uint16 {
	v.ensureHeaders()
	switch {
	case v.flags&vTCP != 0:
		return v.tcp.SrcPort
	case v.flags&vUDP != 0:
		return v.udp.SrcPort
	}
	return 0
}

// DstPort mirrors Packet.DstPort.
func (v *PacketView) DstPort() uint16 {
	v.ensureHeaders()
	switch {
	case v.flags&vTCP != 0:
		return v.tcp.DstPort
	case v.flags&vUDP != 0:
		return v.udp.DstPort
	}
	return 0
}

// Protocol mirrors Packet.Protocol.
func (v *PacketView) Protocol() uint8 {
	v.ensureHeaders()
	switch {
	case v.flags&vTCP != 0:
		return ProtoTCP
	case v.flags&vUDP != 0:
		return ProtoUDP
	case v.flags&vICMP != 0:
		return ProtoICMP
	case v.flags&vIP4 != 0:
		return v.ip4.Protocol
	case v.flags&vIP6 != 0:
		return v.ip6.NextHeader
	}
	return 0
}

// Tuple mirrors Packet.Tuple: the five-tuple, ok=false without a network
// layer.
func (v *PacketView) Tuple() (FiveTuple, bool) {
	v.ensureHeaders()
	src, dst := v.SrcIP(), v.DstIP()
	if !src.IsValid() || !dst.IsValid() || v.flags&(vIP4|vIP6) == 0 {
		return FiveTuple{}, false
	}
	return FiveTuple{
		SrcIP: src, DstIP: dst,
		SrcPort: v.SrcPort(), DstPort: v.DstPort(),
		Proto: v.Protocol(),
	}, true
}

// Summary extracts the flow-assembly fields of the view.
func (v *PacketView) Summary() PacketSummary {
	v.ensureHeaders()
	s := PacketSummary{Ts: v.Ts, Wire: len(v.Data), PayloadLen: v.PayloadLen()}
	if v.flags&vTCP != 0 {
		s.HasTCP, s.TCPFlags = true, v.tcp.Flags
	}
	s.Tuple, s.HasTuple = v.Tuple()
	return s
}

// Materialize decodes everything and returns the equivalent heap
// Packet; Decode(Data, Link, Ts) is exactly this. Layer structs are
// copied and the app layers decoded afresh, so the Packet does not
// alias view state (its Data, Payload and app-layer text still alias
// the raw bytes).
func (v *PacketView) Materialize() *Packet {
	v.ensureHeaders()
	p := &Packet{Ts: v.Ts, Link: v.Link, Data: v.Data, TruncatedLayer: v.trunc}
	if v.flags&vEth != 0 {
		e := v.eth
		p.Eth = &e
	}
	if v.flags&vARP != 0 {
		a := v.arp
		p.ARP = &a
	}
	if v.flags&vIP4 != 0 {
		ip := v.ip4
		p.IPv4 = &ip
	}
	if v.flags&vIP6 != 0 {
		ip := v.ip6
		p.IPv6 = &ip
	}
	if v.flags&vTCP != 0 {
		t := v.tcp
		p.TCP = &t
	}
	if v.flags&vUDP != 0 {
		u := v.udp
		p.UDP = &u
	}
	if v.flags&vICMP != 0 {
		ic := v.icmp
		p.ICMP = &ic
	}
	if v.flags&vDot11 != 0 {
		d := v.dot11
		p.Dot11 = &d
	}
	if v.flags&vPay != 0 {
		p.Payload = v.Data[v.payOff:v.payEnd]
		p.decodeApp()
	}
	return p
}

// ensureHeaders runs the single-pass L2–L4 decode once, into inline
// value fields: on a truncated layer it records the layer's name and
// keeps the outer layers, and the payload is what the innermost decoded
// layer carries.
func (v *PacketView) ensureHeaders() {
	if v.flags&vHdrs != 0 {
		return
	}
	v.flags |= vHdrs
	switch v.Link {
	case LinkDot11:
		v.hdrDot11()
	default:
		v.hdrEthernet()
	}
}

func (v *PacketView) setPay(off, end int) {
	v.flags |= vPay
	v.payOff, v.payEnd = int32(off), int32(end)
}

func (v *PacketView) hdrDot11() {
	b := v.Data
	if len(b) < 24 {
		v.trunc = "dot11"
		return
	}
	fc := binary.LittleEndian.Uint16(b[0:2])
	ftype := uint8(fc>>2) & 0x03
	fsub := uint8(fc>>4) & 0x0f
	d := &v.dot11
	d.Duration = binary.LittleEndian.Uint16(b[2:4])
	d.Seq = binary.LittleEndian.Uint16(b[22:24]) >> 4
	d.Retry = fc&(1<<11) != 0
	if ftype == 2 {
		d.Subtype = Dot11Data
	} else {
		d.Subtype = Dot11Subtype(fsub)
	}
	copy(d.Addr1[:], b[4:10])
	copy(d.Addr2[:], b[10:16])
	copy(d.Addr3[:], b[16:22])
	v.flags |= vDot11
	if len(b) > 24 {
		v.setPay(24, len(b))
	}
}

func (v *PacketView) hdrEthernet() {
	b := v.Data
	if len(b) < 14 {
		v.trunc = "ethernet"
		return
	}
	v.eth.EtherType = binary.BigEndian.Uint16(b[12:14])
	copy(v.eth.Dst[:], b[0:6])
	copy(v.eth.Src[:], b[6:12])
	v.flags |= vEth
	switch v.eth.EtherType {
	case EtherTypeIPv4:
		v.hdrIPv4(14)
	case EtherTypeIPv6:
		v.hdrIPv6(14)
	case EtherTypeARP:
		v.hdrARP(14)
	}
}

func (v *PacketView) hdrARP(off int) {
	b := v.Data[off:]
	if len(b) < 28 {
		v.trunc = "arp"
		return
	}
	a := &v.arp
	a.Op = binary.BigEndian.Uint16(b[6:8])
	copy(a.SenderHW[:], b[8:14])
	a.SenderIP = netip.AddrFrom4([4]byte(b[14:18]))
	copy(a.TargetHW[:], b[18:24])
	a.TargetIP = netip.AddrFrom4([4]byte(b[24:28]))
	v.flags |= vARP
}

func (v *PacketView) hdrIPv4(off int) {
	b := v.Data[off:]
	if len(b) < 20 || b[0]>>4 != 4 {
		v.trunc = "ipv4"
		return
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || len(b) < ihl {
		v.trunc = "ipv4"
		return
	}
	ip := &v.ip4
	ip.TOS = b[1]
	ip.Length = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ip.Flags = b[6] >> 5
	ip.FragOff = binary.BigEndian.Uint16(b[6:8]) & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	ip.Src = netip.AddrFrom4([4]byte(b[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	v.flags |= vIP4
	end := int(ip.Length)
	if end > len(b) || end < ihl {
		end = len(b)
	}
	if ip.FragOff != 0 {
		v.setPay(off+ihl, off+end) // non-first fragment: no L4 header
		return
	}
	v.hdrL4(ip.Protocol, off+ihl, off+end)
}

func (v *PacketView) hdrIPv6(off int) {
	b := v.Data[off:]
	if len(b) < 40 || b[0]>>4 != 6 {
		v.trunc = "ipv6"
		return
	}
	ip := &v.ip6
	ip.TrafficClass = b[0]<<4 | b[1]>>4
	ip.FlowLabel = binary.BigEndian.Uint32(b[0:4]) & 0xfffff
	ip.Length = binary.BigEndian.Uint16(b[4:6])
	ip.NextHeader = b[6]
	ip.HopLimit = b[7]
	ip.Src = netip.AddrFrom16([16]byte(b[8:24]))
	ip.Dst = netip.AddrFrom16([16]byte(b[24:40]))
	v.flags |= vIP6
	v.hdrL4(ip.NextHeader, off+40, len(v.Data))
}

func (v *PacketView) hdrL4(proto uint8, off, end int) {
	b := v.Data[off:end]
	switch proto {
	case ProtoTCP:
		v.hdrTCP(b, off, end)
	case ProtoUDP:
		v.hdrUDP(b, off, end)
	case ProtoICMP:
		v.hdrICMP(b, off, end)
	default:
		if len(b) > 0 {
			v.setPay(off, end)
		}
	}
}

func (v *PacketView) hdrTCP(b []byte, off, end int) {
	if len(b) < 20 {
		v.trunc = "tcp"
		return
	}
	t := &v.tcp
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.DataOff = b[12] >> 4
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	v.flags |= vTCP
	dataOff := int(t.DataOff) * 4
	if dataOff < 20 || dataOff > len(b) {
		v.trunc = "tcp-options"
		return
	}
	t.parseOptions(b[20:dataOff])
	if dataOff < len(b) {
		v.setPay(off+dataOff, end)
	}
}

func (v *PacketView) hdrUDP(b []byte, off, end int) {
	if len(b) < 8 {
		v.trunc = "udp"
		return
	}
	u := &v.udp
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	v.flags |= vUDP
	if len(b) > 8 {
		v.setPay(off+8, end)
	}
}

func (v *PacketView) hdrICMP(b []byte, off, end int) {
	if len(b) < 8 {
		v.trunc = "icmp"
		return
	}
	ic := &v.icmp
	ic.Type = b[0]
	ic.Code = b[1]
	ic.Checksum = binary.BigEndian.Uint16(b[2:4])
	ic.ID = binary.BigEndian.Uint16(b[4:6])
	ic.Seq = binary.BigEndian.Uint16(b[6:8])
	v.flags |= vICMP
	if len(b) > 8 {
		v.setPay(off+8, end)
	}
}

// appGate maps the decoded transport ports onto the app layer decodeApp
// would try, as an AppMask (0 when none applies). Headers must already
// be decoded.
func (v *PacketView) appGate() AppMask {
	switch {
	case v.flags&vUDP != 0 && (v.udp.SrcPort == 53 || v.udp.DstPort == 53):
		return AppDNS
	case v.flags&vTCP != 0 && portIs(&v.tcp, 80, 8080):
		return AppHTTP
	case v.flags&vTCP != 0 && portIs(&v.tcp, 1883, 8883):
		return AppMQTT
	}
	return 0
}

// ensureApp runs the app-layer decode once. It only attempts it with
// a non-empty payload; an empty/absent payload fails every app parser's
// minimum-length check, so gating is equivalent either way.
func (v *PacketView) ensureApp() {
	v.ensureHeaders()
	if v.flags&vApp != 0 {
		return
	}
	v.flags |= vApp
	if v.flags&vPay == 0 || v.payOff == v.payEnd {
		return
	}
	pay := v.Data[v.payOff:v.payEnd]
	switch v.appGate() {
	case AppDNS:
		if decodeDNS(pay, new(DNS)) {
			v.flags |= vDNS
		}
	case AppHTTP:
		var h HTTP
		if decodeHTTP(pay, &h, true) {
			v.flags |= vHTTP
			v.httpHost, v.httpUA, v.httpLen = spanOf(pay, h.Host), spanOf(pay, h.UserAgent), h.ContentLength
		}
	case AppMQTT:
		if decodeMQTT(pay, new(MQTT)) {
			v.flags |= vMQTT
		}
	}
}

// PacketSummary is the fixed-size projection of a packet that flow
// assembly consumes: timestamp, oriented five-tuple, sizes and TCP
// flags. It lets the assemblers run off lazy views (or any other
// representation) without materializing *Packet structs.
type PacketSummary struct {
	// Ts is the packet timestamp.
	Ts time.Time
	// Tuple is the oriented five-tuple; HasTuple is false for packets
	// without a network layer (ARP, 802.11 management).
	Tuple    FiveTuple
	HasTuple bool
	// Wire is the on-wire length; PayloadLen the application payload
	// length.
	Wire       int
	PayloadLen int
	// TCPFlags holds the TCP flag bits when HasTCP is set.
	TCPFlags uint8
	HasTCP   bool
}

// Summary extracts the flow-assembly fields of a materialized packet.
func (p *Packet) Summary() PacketSummary {
	s := PacketSummary{Ts: p.Ts, Wire: p.WireLen(), PayloadLen: len(p.Payload)}
	if p.TCP != nil {
		s.HasTCP, s.TCPFlags = true, p.TCP.Flags
	}
	s.Tuple, s.HasTuple = p.Tuple()
	return s
}
