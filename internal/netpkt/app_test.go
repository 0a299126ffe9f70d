package netpkt

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode"
	"unicode/utf8"
)

// parseHTTP, parseMQTT and parseDNS run the in-place decoders into a
// fresh value.
func parseHTTP(b []byte) (h HTTP, ok bool) { return h, decodeHTTP(b, &h, true) }
func parseMQTT(b []byte) (m MQTT, ok bool) { return m, decodeMQTT(b, &m) }
func parseDNS(b []byte) (d DNS, ok bool)   { return d, decodeDNS(b, &d) }

func TestHTTPRequestDecode(t *testing.T) {
	b := EncodeHTTPRequest("GET", "/fw/check?v=2", "fw.example.com", 0)
	h, ok := parseHTTP(b)
	if !ok {
		t.Fatal("decode failed")
	}
	if !h.IsRequest || string(h.Method) != "GET" || string(h.Path) != "/fw/check?v=2" {
		t.Fatalf("request mismatch: %+v", h)
	}
	if string(h.Host) != "fw.example.com" {
		t.Errorf("host = %q", h.Host)
	}
	if string(h.UserAgent) != "iot-device/1.0" {
		t.Errorf("user-agent = %q", h.UserAgent)
	}
	if h.ContentLength != -1 {
		t.Errorf("content-length = %d, want -1 (absent)", h.ContentLength)
	}
}

func TestHTTPPostWithBody(t *testing.T) {
	b := EncodeHTTPRequest("POST", "/data", "h", 42)
	h, ok := parseHTTP(b)
	if !ok || string(h.Method) != "POST" || h.ContentLength != 42 {
		t.Fatalf("post mismatch: %+v ok=%v", h, ok)
	}
}

func TestHTTPResponseDecode(t *testing.T) {
	b := EncodeHTTPResponse(404, 10)
	h, ok := parseHTTP(b)
	if !ok {
		t.Fatal("decode failed")
	}
	if h.IsRequest || h.Status != 404 || h.ContentLength != 10 {
		t.Fatalf("response mismatch: %+v", h)
	}
}

func TestHTTPRejectsNonHTTP(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("hi"),
		[]byte("NOTAMETHOD / HTTP/1.1\r\n\r\n"),
		[]byte("GET /nohttp\r\n"),
		[]byte("HTTP/1.1 9999 Bad\r\n"),
		{0x30, 0x0c, 0x00, 0x01, 0xff},
	}
	for i, c := range cases {
		if h, ok := parseHTTP(c); ok {
			t.Errorf("case %d decoded as HTTP: %+v", i, h)
		}
	}
}

// TestHeaderKeyFoldIsASCII holds keyIs to bytes.ToLower: no non-ASCII
// rune lowercases to a letter of the header keys decodeHTTP matches.
func TestHeaderKeyFoldIsASCII(t *testing.T) {
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		if l := unicode.ToLower(r); l < utf8.RuneSelf && strings.ContainsRune("host user-agent content-length", l) {
			t.Errorf("%U lowercases to %q", r, l)
		}
	}
	for _, k := range []string{"HOST", "Host", "hoſt", "Ho\u212at", "USER-agent", "user\ragent", "Content-Length"} {
		want := strings.ToLower(k)
		for _, key := range []string{"host", "user-agent", "content-length"} {
			if got := keyIs([]byte(k), key); got != (want == key) {
				t.Errorf("keyIs(%q, %q) = %v, ToLower gives %q", k, key, got, want)
			}
		}
	}
}

func TestHTTPDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		parseHTTP(b)
		parseMQTT(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMQTTPublishRoundTrip(t *testing.T) {
	b := EncodeMQTTPublish("home/sensor0/temp", 12)
	m, ok := parseMQTT(b)
	if !ok {
		t.Fatal("decode failed")
	}
	if m.Type != MQTTPublish || string(m.Topic) != "home/sensor0/temp" {
		t.Fatalf("publish mismatch: %+v", m)
	}
	if m.Remaining != 2+17+12 {
		t.Errorf("remaining = %d, want %d", m.Remaining, 2+17+12)
	}
	if m.Type.String() != "PUBLISH" {
		t.Errorf("type name = %q", m.Type)
	}
}

func TestMQTTConnectDecode(t *testing.T) {
	b := mqttConnect("plug-3")
	m, ok := parseMQTT(b)
	if !ok || m.Type != MQTTConnect {
		t.Fatalf("connect mismatch: %+v ok=%v", m, ok)
	}
}

func TestMQTTRejectsGarbage(t *testing.T) {
	if _, ok := parseMQTT([]byte{0x00, 0x00}); ok { // type 0 invalid
		t.Error("type 0 should be rejected")
	}
	if _, ok := parseMQTT([]byte{0xf0}); ok { // too short
		t.Error("1-byte input should be rejected")
	}
	if _, ok := parseMQTT([]byte{0x36, 0x02}); ok { // QoS 3 invalid
		t.Error("QoS 3 should be rejected")
	}
}

func TestMQTTLongRemainingLength(t *testing.T) {
	b := EncodeMQTTPublish("t", 300) // remaining > 127 -> two length bytes
	m, ok := parseMQTT(b)
	if !ok || m.Remaining != 2+1+300 {
		t.Fatalf("long remaining mismatch: %+v ok=%v", m, ok)
	}
}

func TestAppLayerDecodedThroughPacket(t *testing.T) {
	p := &Packet{
		Eth:     testEth(),
		IPv4:    &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2)},
		TCP:     &TCP{SrcPort: 50000, DstPort: 80, Flags: FlagACK | FlagPSH},
		Payload: EncodeHTTPRequest("GET", "/", "x", 0),
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.HTTP == nil || string(q.HTTP.Method) != "GET" {
		t.Fatalf("HTTP layer not decoded through packet: %+v", q.HTTP)
	}

	p2 := &Packet{
		Eth:     testEth(),
		IPv4:    &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2)},
		TCP:     &TCP{SrcPort: 50001, DstPort: 1883, Flags: FlagACK | FlagPSH},
		Payload: EncodeMQTTPublish("a/b", 4),
	}
	raw2, err := p2.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q2 := Decode(raw2, LinkEthernet, time.Time{})
	if q2.MQTT == nil || string(q2.MQTT.Topic) != "a/b" {
		t.Fatalf("MQTT layer not decoded through packet: %+v", q2.MQTT)
	}
}

func TestNonAppPortsNotDecoded(t *testing.T) {
	p := &Packet{
		Eth:     testEth(),
		IPv4:    &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
		TCP:     &TCP{SrcPort: 50000, DstPort: 9999, Flags: FlagACK | FlagPSH},
		Payload: EncodeHTTPRequest("GET", "/", "x", 0),
	}
	raw, _ := p.Serialize()
	q := Decode(raw, LinkEthernet, time.Time{})
	if q.HTTP != nil {
		t.Error("HTTP must only be decoded on HTTP ports")
	}
}

// mqttConnect builds a minimal CONNECT packet payload.
func mqttConnect(clientID string) []byte {
	// Variable header: protocol name "MQTT", level 4, flags, keepalive.
	var vh []byte
	vh = append(vh, 0, 4, 'M', 'Q', 'T', 'T', 4, 2, 0, 60)
	vh = append(vh, byte(len(clientID)>>8), byte(len(clientID)))
	vh = append(vh, clientID...)
	b := []byte{byte(MQTTConnect) << 4, byte(len(vh))}
	return append(b, vh...)
}
