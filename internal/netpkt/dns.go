package netpkt

import "encoding/binary"

// DNS is a minimally-decoded DNS message: the header, which is what the
// IoT feature pipelines (e.g. the Ensemble algorithm's DNS features)
// consume.
type DNS struct {
	ID      uint16
	QR      bool // response?
	Opcode  uint8
	RCode   uint8
	QDCount uint16
	ANCount uint16
}

// decodeDNS parses a DNS message into d; ok is false on malformed input.
func decodeDNS(b []byte, d *DNS) bool {
	if len(b) < 12 {
		return false
	}
	*d = DNS{
		ID:      binary.BigEndian.Uint16(b[0:2]),
		QR:      b[2]&0x80 != 0,
		Opcode:  (b[2] >> 3) & 0x0f,
		RCode:   b[3] & 0x0f,
		QDCount: binary.BigEndian.Uint16(b[4:6]),
		ANCount: binary.BigEndian.Uint16(b[6:8]),
	}
	return true
}

// EncodeDNSQuery builds a simple one-question DNS query payload (A record,
// IN class) for the traffic simulator.
func EncodeDNSQuery(id uint16, name string, response bool) []byte {
	b := make([]byte, 12, 12+len(name)+6)
	binary.BigEndian.PutUint16(b[0:2], id)
	if response {
		b[2] = 0x80
		binary.BigEndian.PutUint16(b[6:8], 1) // one answer
	}
	binary.BigEndian.PutUint16(b[4:6], 1) // one question
	b = appendName(b, name)
	b = append(b, 0, 1, 0, 1) // QTYPE=A, QCLASS=IN
	return b
}

func appendName(b []byte, name string) []byte {
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			label := name[start:i]
			if len(label) > 0 && len(label) < 64 {
				b = append(b, byte(len(label)))
				b = append(b, label...)
			}
			start = i + 1
		}
	}
	return append(b, 0)
}
