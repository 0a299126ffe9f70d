package netpkt

import "encoding/binary"

// Dot11 frame type/subtype combinations the AWID3 stand-in uses.
type Dot11Subtype uint8

// Management and data subtypes (type<<4 | subtype packed into one value).
const (
	Dot11Beacon       Dot11Subtype = 0x08 // mgmt/beacon
	Dot11Deauth       Dot11Subtype = 0x0c // mgmt/deauthentication
	Dot11Disassoc     Dot11Subtype = 0x0a // mgmt/disassociation
	Dot11Auth         Dot11Subtype = 0x0b // mgmt/authentication
	Dot11AssocReq     Dot11Subtype = 0x00 // mgmt/association request
	Dot11ProbeRequest Dot11Subtype = 0x04 // mgmt/probe request
	Dot11Data         Dot11Subtype = 0x20 // data (marker value)
)

// IsManagement reports whether the subtype is a management frame.
func (s Dot11Subtype) IsManagement() bool { return s != Dot11Data }

// Dot11 is an IEEE 802.11 frame header (3-address format). 802.11
// management frames carry no IP layer, which is exactly why most IP-based
// algorithms cannot run on the AWID3 dataset (paper Obs. 4).
type Dot11 struct {
	Subtype  Dot11Subtype
	Duration uint16
	Addr1    MAC // receiver
	Addr2    MAC // transmitter
	Addr3    MAC // BSSID
	Seq      uint16
	// Retry mirrors the frame-control retry bit.
	Retry bool
}

// encode renders a 24-byte 802.11 header followed by the payload.
func (d *Dot11) encode(payload []byte) []byte {
	b := make([]byte, 24+len(payload))
	var fc uint16
	if d.Subtype == Dot11Data {
		fc = 0x0008 // type=data subtype=0
	} else {
		fc = uint16(d.Subtype&0x0f) << 4 // type=mgmt
	}
	if d.Retry {
		fc |= 1 << 11
	}
	binary.LittleEndian.PutUint16(b[0:2], fc)
	binary.LittleEndian.PutUint16(b[2:4], d.Duration)
	copy(b[4:10], d.Addr1[:])
	copy(b[10:16], d.Addr2[:])
	copy(b[16:22], d.Addr3[:])
	binary.LittleEndian.PutUint16(b[22:24], d.Seq<<4)
	copy(b[24:], payload)
	return b
}
