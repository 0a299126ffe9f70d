package netpkt

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// Decode parses wire bytes into a Packet starting from the given link
// type. Decoding is best-effort, gopacket-style: a malformed inner layer
// sets TruncatedLayer and leaves the outer layers populated.
func Decode(data []byte, link LinkType, ts time.Time) *Packet {
	p := &Packet{Ts: ts, Link: link, Data: data}
	switch link {
	case LinkDot11:
		p.decodeDot11(data)
	default:
		p.decodeEthernet(data)
	}
	return p
}

func (p *Packet) decodeEthernet(b []byte) {
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
		p.decodeIPv4(rest)
	case EtherTypeIPv6:
		p.decodeIPv6(rest)
	case EtherTypeARP:
		p.decodeARP(rest)
	}
}

func (p *Packet) decodeARP(b []byte) {
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

func (p *Packet) decodeIPv4(b []byte) {
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
	p.decodeL4(ip.Protocol, rest)
}

func (p *Packet) decodeIPv6(b []byte) {
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
	p.decodeL4(ip.NextHeader, b[40:])
}

func (p *Packet) decodeL4(proto uint8, b []byte) {
	switch proto {
	case ProtoTCP:
		p.decodeTCP(b)
	case ProtoUDP:
		p.decodeUDP(b)
	case ProtoICMP:
		p.decodeICMP(b)
	default:
		if len(b) > 0 {
			p.Payload = b
		}
	}
}

func (p *Packet) decodeTCP(b []byte) {
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

// parseOptions walks the TCP options region, extracting the common ones.
func (t *TCP) parseOptions(b []byte) {
	for i := 0; i < len(b); {
		kind := b[i]
		switch kind {
		case 0: // end of options
			return
		case 1: // NOP
			i++
			continue
		}
		if i+1 >= len(b) {
			return
		}
		l := int(b[i+1])
		if l < 2 || i+l > len(b) {
			return
		}
		switch kind {
		case 2: // MSS
			if l == 4 {
				t.MSS = binary.BigEndian.Uint16(b[i+2 : i+4])
			}
		case 3: // window scale
			if l == 3 {
				t.WScale = b[i+2]
			}
		case 4: // SACK permitted
			t.SACKOK = true
		}
		i += l
	}
}

func (p *Packet) decodeUDP(b []byte) {
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

func (p *Packet) decodeICMP(b []byte) {
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

// DecodeAppLayer (re)derives the application layers (DNS/HTTP/MQTT) from
// the packet's transport ports and payload. Decode calls it internally;
// synthesized packets (built layer-by-layer rather than parsed) call it
// after serialization.
func (p *Packet) DecodeAppLayer() { p.decodeApp() }

// decodeApp attempts application-layer decoding keyed on well-known ports.
func (p *Packet) decodeApp() {
	switch {
	case p.UDP != nil && (p.UDP.SrcPort == 53 || p.UDP.DstPort == 53):
		if d := new(DNS); decodeDNS(p.Payload, d) {
			p.DNS = d
		}
	case p.TCP != nil && portIs(p.TCP, 80, 8080):
		if h := new(HTTP); decodeHTTP(p.Payload, h, true) {
			p.HTTP = h
		}
	case p.TCP != nil && portIs(p.TCP, 1883, 8883):
		if m := new(MQTT); decodeMQTT(p.Payload, m) {
			p.MQTT = m
		}
	}
}

func portIs(t *TCP, ports ...uint16) bool {
	for _, port := range ports {
		if t.SrcPort == port || t.DstPort == port {
			return true
		}
	}
	return false
}

// VerifyIPv4Checksum recomputes the IPv4 header checksum over the raw
// bytes and reports whether it is consistent. It requires raw Data.
func (p *Packet) VerifyIPv4Checksum() bool {
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
