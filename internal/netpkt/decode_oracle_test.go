package netpkt

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// refDecode is the eager layer walk Decode used to be: one heap struct
// per layer, written straight from the bytes, independently of the
// view's header pass. The view (and so Decode, which materializes it)
// must build exactly the Packet it builds, for any input.
func refDecode(data []byte, link LinkType, ts time.Time) *Packet {
	p := &Packet{Ts: ts, Link: link, Data: data}
	switch link {
	case LinkDot11:
		p.refDecodeDot11(data)
	default:
		p.refDecodeEthernet(data)
	}
	return p
}

func (p *Packet) refDecodeEthernet(b []byte) {
	if len(b) < 14 {
		p.TruncatedLayer = "ethernet"
		return
	}
	eth := &Ethernet{EtherType: binary.BigEndian.Uint16(b[12:14])}
	copy(eth.Dst[:], b[0:6])
	copy(eth.Src[:], b[6:12])
	p.Eth = eth
	rest := b[14:]
	switch eth.EtherType {
	case EtherTypeIPv4:
		p.refDecodeIPv4(rest)
	case EtherTypeIPv6:
		p.refDecodeIPv6(rest)
	case EtherTypeARP:
		p.refDecodeARP(rest)
	}
}

func (p *Packet) refDecodeARP(b []byte) {
	if len(b) < 28 {
		p.TruncatedLayer = "arp"
		return
	}
	a := &ARP{Op: binary.BigEndian.Uint16(b[6:8])}
	copy(a.SenderHW[:], b[8:14])
	a.SenderIP = netip.AddrFrom4([4]byte(b[14:18]))
	copy(a.TargetHW[:], b[18:24])
	a.TargetIP = netip.AddrFrom4([4]byte(b[24:28]))
	p.ARP = a
}

func (p *Packet) refDecodeIPv4(b []byte) {
	if len(b) < 20 || b[0]>>4 != 4 {
		p.TruncatedLayer = "ipv4"
		return
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || len(b) < ihl {
		p.TruncatedLayer = "ipv4"
		return
	}
	ip := &IPv4{
		TOS:      b[1],
		Length:   binary.BigEndian.Uint16(b[2:4]),
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Flags:    b[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(b[6:8]) & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Checksum: binary.BigEndian.Uint16(b[10:12]),
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
	}
	p.IPv4 = ip
	end := int(ip.Length)
	if end > len(b) || end < ihl {
		end = len(b)
	}
	rest := b[ihl:end]
	if ip.FragOff != 0 {
		p.Payload = rest // non-first fragment: no L4 header
		return
	}
	p.refDecodeL4(ip.Protocol, rest)
}

func (p *Packet) refDecodeIPv6(b []byte) {
	if len(b) < 40 || b[0]>>4 != 6 {
		p.TruncatedLayer = "ipv6"
		return
	}
	ip := &IPv6{
		TrafficClass: b[0]<<4 | b[1]>>4,
		FlowLabel:    binary.BigEndian.Uint32(b[0:4]) & 0xfffff,
		Length:       binary.BigEndian.Uint16(b[4:6]),
		NextHeader:   b[6],
		HopLimit:     b[7],
		Src:          netip.AddrFrom16([16]byte(b[8:24])),
		Dst:          netip.AddrFrom16([16]byte(b[24:40])),
	}
	p.IPv6 = ip
	p.refDecodeL4(ip.NextHeader, b[40:])
}

func (p *Packet) refDecodeL4(proto uint8, b []byte) {
	switch proto {
	case ProtoTCP:
		p.refDecodeTCP(b)
	case ProtoUDP:
		p.refDecodeUDP(b)
	case ProtoICMP:
		p.refDecodeICMP(b)
	default:
		if len(b) > 0 {
			p.Payload = b
		}
	}
}

func (p *Packet) refDecodeTCP(b []byte) {
	if len(b) < 20 {
		p.TruncatedLayer = "tcp"
		return
	}
	t := &TCP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		DataOff: b[12] >> 4,
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
		Urgent:  binary.BigEndian.Uint16(b[18:20]),
	}
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	p.TCP = t
	off := int(t.DataOff) * 4
	if off < 20 || off > len(b) {
		p.TruncatedLayer = "tcp-options"
		return
	}
	t.parseOptions(b[20:off])
	if off < len(b) {
		p.Payload = b[off:]
		p.decodeApp()
	}
}

func (p *Packet) refDecodeUDP(b []byte) {
	if len(b) < 8 {
		p.TruncatedLayer = "udp"
		return
	}
	u := &UDP{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}
	p.UDP = u
	if len(b) > 8 {
		p.Payload = b[8:]
		p.decodeApp()
	}
}

func (p *Packet) refDecodeICMP(b []byte) {
	if len(b) < 8 {
		p.TruncatedLayer = "icmp"
		return
	}
	p.ICMP = &ICMP{
		Type:     b[0],
		Code:     b[1],
		Checksum: binary.BigEndian.Uint16(b[2:4]),
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Seq:      binary.BigEndian.Uint16(b[6:8]),
	}
	if len(b) > 8 {
		p.Payload = b[8:]
	}
}

// refDecodeDot11 parses an 802.11 header from raw bytes.
func (p *Packet) refDecodeDot11(b []byte) {
	if len(b) < 24 {
		p.TruncatedLayer = "dot11"
		return
	}
	fc := binary.LittleEndian.Uint16(b[0:2])
	ftype := uint8(fc>>2) & 0x03
	fsub := uint8(fc>>4) & 0x0f
	d := &Dot11{
		Duration: binary.LittleEndian.Uint16(b[2:4]),
		Seq:      binary.LittleEndian.Uint16(b[22:24]) >> 4,
		Retry:    fc&(1<<11) != 0,
	}
	if ftype == 2 {
		d.Subtype = Dot11Data
	} else {
		d.Subtype = Dot11Subtype(fsub)
	}
	copy(d.Addr1[:], b[4:10])
	copy(d.Addr2[:], b[10:16])
	copy(d.Addr3[:], b[16:22])
	p.Dot11 = d
	if len(b) > 24 {
		p.Payload = b[24:]
	}
}
