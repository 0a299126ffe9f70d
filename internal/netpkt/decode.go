package netpkt

import (
	"encoding/binary"
	"time"
)

// Decode parses wire bytes into a Packet starting from the given link
// type: the view's one header pass, materialized. Decoding is
// best-effort, gopacket-style: a malformed inner layer sets
// TruncatedLayer and leaves the outer layers populated.
func Decode(data []byte, link LinkType, ts time.Time) *Packet {
	var v PacketView
	v.Reset(data, link, ts)
	return v.Materialize()
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

// decodeApp attempts application-layer decoding keyed on well-known ports;
// Materialize calls it.
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
