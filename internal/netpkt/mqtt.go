package netpkt

// MQTTType is the MQTT control-packet type from the fixed header.
type MQTTType uint8

// MQTT control packet types (MQTT 3.1.1 §2.2.1).
const (
	MQTTConnect    MQTTType = 1
	MQTTConnAck    MQTTType = 2
	MQTTPublish    MQTTType = 3
	MQTTPubAck     MQTTType = 4
	MQTTSubscribe  MQTTType = 8
	MQTTSubAck     MQTTType = 9
	MQTTPingReq    MQTTType = 12
	MQTTPingResp   MQTTType = 13
	MQTTDisconnect MQTTType = 14
)

// String names the control type.
func (t MQTTType) String() string {
	switch t {
	case MQTTConnect:
		return "CONNECT"
	case MQTTConnAck:
		return "CONNACK"
	case MQTTPublish:
		return "PUBLISH"
	case MQTTPubAck:
		return "PUBACK"
	case MQTTSubscribe:
		return "SUBSCRIBE"
	case MQTTSubAck:
		return "SUBACK"
	case MQTTPingReq:
		return "PINGREQ"
	case MQTTPingResp:
		return "PINGRESP"
	case MQTTDisconnect:
		return "DISCONNECT"
	default:
		return "UNKNOWN"
	}
}

// MQTT is a minimally-decoded MQTT fixed header plus the topic of
// PUBLISH packets — what IoT telemetry feature pipelines key on. Topic
// is a subslice of the payload.
type MQTT struct {
	Type      MQTTType
	QoS       uint8
	Retain    bool
	Remaining int
	Topic     []byte // PUBLISH only
}

// decodeMQTT parses an MQTT control packet from a TCP payload into m;
// ok is false when the bytes do not look like MQTT.
func decodeMQTT(b []byte, m *MQTT) bool {
	if len(b) < 2 {
		return false
	}
	*m = MQTT{
		Type:   MQTTType(b[0] >> 4),
		QoS:    (b[0] >> 1) & 0x03,
		Retain: b[0]&0x01 != 0,
	}
	if m.Type < MQTTConnect || m.Type > MQTTDisconnect || m.QoS == 3 {
		return false
	}
	// Variable-length remaining length (up to 4 bytes).
	rem, mult, i := 0, 1, 1
	for {
		if i >= len(b) || i > 4 {
			return false
		}
		digit := int(b[i])
		rem += (digit & 0x7f) * mult
		i++
		if digit&0x80 == 0 {
			break
		}
		mult *= 128
	}
	m.Remaining = rem
	if m.Type == MQTTPublish && i+2 <= len(b) {
		tl := int(b[i])<<8 | int(b[i+1])
		if i+2+tl <= len(b) && tl > 0 && tl < 256 {
			m.Topic = b[i+2 : i+2+tl]
		}
	}
	return true
}

// EncodeMQTTPublish builds a PUBLISH packet payload for the simulator.
func EncodeMQTTPublish(topic string, payloadLen int) []byte {
	varLen := 2 + len(topic) + payloadLen
	b := []byte{byte(MQTTPublish) << 4}
	// Encode remaining length.
	rem := varLen
	for {
		digit := byte(rem % 128)
		rem /= 128
		if rem > 0 {
			digit |= 0x80
		}
		b = append(b, digit)
		if rem == 0 {
			break
		}
	}
	b = append(b, byte(len(topic)>>8), byte(len(topic)))
	b = append(b, topic...)
	for i := 0; i < payloadLen; i++ {
		b = append(b, byte('0'+i%10))
	}
	return b
}

// EncodeMQTTConnect builds a minimal CONNECT packet payload.
func EncodeMQTTConnect(clientID string) []byte {
	// Variable header: protocol name "MQTT", level 4, flags, keepalive.
	var vh []byte
	vh = append(vh, 0, 4, 'M', 'Q', 'T', 'T', 4, 2, 0, 60)
	vh = append(vh, byte(len(clientID)>>8), byte(len(clientID)))
	vh = append(vh, clientID...)
	b := []byte{byte(MQTTConnect) << 4, byte(len(vh))}
	return append(b, vh...)
}
