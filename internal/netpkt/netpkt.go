// Package netpkt models network packets and implements wire-format
// encoding and decoding for the protocol layers Lumen's feature pipelines
// consume: Ethernet, ARP, IPv4, IPv6, TCP, UDP, ICMP, DNS, plus IEEE
// 802.11 management frames for wireless datasets. It plays the role
// pypacker/gopacket play for the original system, following gopacket's
// layered-decoding design: a Packet holds typed pointers to each decoded
// layer, nil when absent.
package netpkt

import (
	"fmt"
	"net/netip"
	"time"
)

// EtherType values used by the decoder.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeIPv6 uint16 = 0x86DD
)

// IP protocol numbers used by the decoder.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// LinkType identifies the outermost layer of a capture, mirroring pcap
// link types.
type LinkType uint32

// Supported link types.
const (
	LinkEthernet LinkType = 1
	LinkDot11    LinkType = 105
)

// MAC is a 48-bit hardware address.
type MAC [6]byte

// String formats the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// ARP is an Ethernet/IPv4 ARP message.
type ARP struct {
	Op       uint16 // 1 request, 2 reply
	SenderHW MAC
	SenderIP netip.Addr
	TargetHW MAC
	TargetIP netip.Addr
}

// IPv4 is an IPv4 header (options not modelled).
type IPv4 struct {
	TOS      uint8
	Length   uint16 // total length incl. header
	ID       uint16
	Flags    uint8 // 3 bits: evil/DF/MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst netip.Addr
}

// IPv6 is a fixed IPv6 header.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	Length       uint16 // payload length
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// TCP is a TCP header. Common options are decoded when present
// (DataOff > 5): MSS, window scale and SACK-permitted.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	// MSS is the maximum-segment-size option value, 0 when absent.
	MSS uint16
	// WScale is the window-scale shift, 0 when absent.
	WScale uint8
	// SACKOK reports the SACK-permitted option.
	SACKOK bool
}

// HasFlag reports whether all bits in f are set.
func (t *TCP) HasFlag(f uint8) bool { return t.Flags&f == f }

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// ICMP is an ICMP header.
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
	ID, Seq    uint16
}

// Packet is one decoded (or synthesized) packet. Layer pointers are nil
// when the layer is absent. Data holds the raw bytes when the packet came
// off a capture or was serialized.
type Packet struct {
	Ts   time.Time
	Link LinkType
	Data []byte

	Eth   *Ethernet
	ARP   *ARP
	IPv4  *IPv4
	IPv6  *IPv6
	TCP   *TCP
	UDP   *UDP
	ICMP  *ICMP
	Dot11 *Dot11
	DNS   *DNS
	HTTP  *HTTP
	MQTT  *MQTT

	// Payload is the application payload (above L4), nil when empty.
	Payload []byte

	// TruncatedLayer names the first layer that failed to decode, empty
	// when decoding was clean (gopacket's ErrorLayer idea).
	TruncatedLayer string
}

// WireLen returns the on-wire packet length: len(Data) when raw bytes are
// present, otherwise a best-effort reconstruction from decoded headers.
func (p *Packet) WireLen() int {
	if len(p.Data) > 0 {
		return len(p.Data)
	}
	n := 0
	if p.Eth != nil {
		n += 14
	}
	if p.Dot11 != nil {
		n += 24
	}
	switch {
	case p.IPv4 != nil:
		n += int(p.IPv4.Length)
	case p.IPv6 != nil:
		n += 40 + int(p.IPv6.Length)
	case p.ARP != nil:
		n += 28
	}
	return n
}

// SrcIP returns the network-layer source address (zero Addr when absent).
func (p *Packet) SrcIP() netip.Addr {
	switch {
	case p.IPv4 != nil:
		return p.IPv4.Src
	case p.IPv6 != nil:
		return p.IPv6.Src
	case p.ARP != nil:
		return p.ARP.SenderIP
	}
	return netip.Addr{}
}

// DstIP returns the network-layer destination address (zero Addr when
// absent).
func (p *Packet) DstIP() netip.Addr {
	switch {
	case p.IPv4 != nil:
		return p.IPv4.Dst
	case p.IPv6 != nil:
		return p.IPv6.Dst
	case p.ARP != nil:
		return p.ARP.TargetIP
	}
	return netip.Addr{}
}

// SrcPort returns the transport source port, 0 when no transport layer.
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.SrcPort
	case p.UDP != nil:
		return p.UDP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port, 0 when no transport
// layer.
func (p *Packet) DstPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.DstPort
	case p.UDP != nil:
		return p.UDP.DstPort
	}
	return 0
}

// Protocol returns the IP protocol number, 0 when no network layer.
func (p *Packet) Protocol() uint8 {
	switch {
	case p.TCP != nil:
		return ProtoTCP
	case p.UDP != nil:
		return ProtoUDP
	case p.ICMP != nil:
		return ProtoICMP
	case p.IPv4 != nil:
		return p.IPv4.Protocol
	case p.IPv6 != nil:
		return p.IPv6.NextHeader
	}
	return 0
}

// FiveTuple identifies a unidirectional flow. It is comparable and valid
// as a map key.
type FiveTuple struct {
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the tuple of the opposite direction.
func (f FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: f.DstIP, DstIP: f.SrcIP,
		SrcPort: f.DstPort, DstPort: f.SrcPort,
		Proto: f.Proto,
	}
}

// Canonical returns the direction-independent form of the tuple (the
// lexicographically smaller endpoint first), identifying a bidirectional
// connection.
func (f FiveTuple) Canonical() FiveTuple {
	if c := f.DstIP.Compare(f.SrcIP); c < 0 || c == 0 && f.DstPort < f.SrcPort {
		return f.Reverse()
	}
	return f
}

// String renders the tuple as "src:sport->dst:dport/proto".
func (f FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort, f.Proto)
}

// Tuple extracts the packet's five-tuple; ok is false for packets without
// a network layer (e.g. 802.11 management frames, ARP).
func (p *Packet) Tuple() (f FiveTuple, ok bool) {
	src, dst := p.SrcIP(), p.DstIP()
	if !src.IsValid() || !dst.IsValid() || (p.IPv4 == nil && p.IPv6 == nil) {
		return FiveTuple{}, false
	}
	return FiveTuple{
		SrcIP: src, DstIP: dst,
		SrcPort: p.SrcPort(), DstPort: p.DstPort(),
		Proto: p.Protocol(),
	}, true
}
