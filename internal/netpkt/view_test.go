package netpkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// viewCorpus builds a diverse set of raw frames covering every layer the
// decoder knows: both link types, both IP versions, all L4 protocols,
// every app protocol, TCP options, fragments and non-IP frames.
func viewCorpus(t testing.TB) []struct {
	name string
	link LinkType
	raw  []byte
} {
	ser := func(p *Packet) []byte {
		raw, err := p.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	v6src := netip.MustParseAddr("fd00::1")
	v6dst := netip.MustParseAddr("fd00::2")
	tcpApp := func(port uint16, payload []byte) []byte {
		return ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(10, 0, 0, 5), Dst: ip4(10, 0, 0, 6)},
			TCP:     &TCP{SrcPort: port, DstPort: 43000, Flags: FlagACK | FlagPSH},
			Payload: payload,
		})
	}
	// dns builds a query header announcing qd questions, then names.
	dns := func(qd uint16, names ...string) []byte {
		b := make([]byte, 12)
		binary.BigEndian.PutUint16(b[4:6], qd)
		for _, n := range names {
			b = append(appendName(b, n), 0, 1, 0, 1)
		}
		return ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoUDP, Src: ip4(192, 168, 1, 10), Dst: ip4(8, 8, 8, 8)},
			UDP:     &UDP{SrcPort: 5353, DstPort: 53},
			Payload: b,
		})
	}
	var qnames []string
	for i := 0; i < 17; i++ {
		qnames = append(qnames, fmt.Sprintf("q%d.iot.example", i))
	}
	// compressed: a second question that points back at the first name.
	compressed := append(EncodeDNSQuery(3, "a.example", false), 0xc0, 12, 0, 1, 0, 1)
	compressed[5] = 2
	return []struct {
		name string
		link LinkType
		raw  []byte
	}{
		{"tcp-http", LinkEthernet, ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2), ID: 7},
			TCP:     &TCP{SrcPort: 41000, DstPort: 80, Seq: 5, Ack: 6, Flags: FlagACK | FlagPSH, Window: 1024},
			Payload: EncodeHTTPRequest("GET", "/fw", "iot.example", 0),
		})},
		{"tcp-mqtt", LinkEthernet, ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 32, Protocol: ProtoTCP, Src: ip4(10, 0, 0, 3), Dst: ip4(10, 0, 0, 4)},
			TCP:     &TCP{SrcPort: 52000, DstPort: 1883, Flags: FlagACK},
			Payload: EncodeMQTTPublish("home/sensor0/temp", 12),
		})},
		{"tcp-options", LinkEthernet, ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoTCP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2)},
			TCP:     &TCP{SrcPort: 1000, DstPort: 2000, Flags: FlagSYN, MSS: 1460, WScale: 7, SACKOK: true},
			Payload: []byte("x"),
		})},
		{"udp-dns", LinkEthernet, ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoUDP, Src: ip4(192, 168, 1, 10), Dst: ip4(8, 8, 8, 8)},
			UDP:     &UDP{SrcPort: 5353, DstPort: 53},
			Payload: EncodeDNSQuery(7, "camera.iot.example.com", false),
		})},
		{"udp-plain", LinkEthernet, ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoUDP, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
			UDP:     &UDP{SrcPort: 9999, DstPort: 8888},
			Payload: []byte("telemetry"),
		})},
		{"icmp", LinkEthernet, ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoICMP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 99)},
			ICMP:    &ICMP{Type: 8, Code: 0, ID: 3, Seq: 4},
			Payload: []byte("ping"),
		})},
		{"arp", LinkEthernet, ser(&Packet{
			Eth: &Ethernet{Dst: MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Src: MAC{2, 0, 0, 0, 0, 9}},
			ARP: &ARP{Op: 1, SenderHW: MAC{2, 0, 0, 0, 0, 9}, SenderIP: ip4(10, 0, 0, 9), TargetIP: ip4(10, 0, 0, 1)},
		})},
		{"ipv6-udp", LinkEthernet, ser(&Packet{
			Eth:     &Ethernet{EtherType: EtherTypeIPv6},
			IPv6:    &IPv6{NextHeader: ProtoUDP, HopLimit: 64, TrafficClass: 0xA5, FlowLabel: 0x12345, Src: v6src, Dst: v6dst},
			UDP:     &UDP{SrcPort: 546, DstPort: 547},
			Payload: []byte("dhcpv6ish"),
		})},
		{"ipv4-fragment", LinkEthernet, ser(&Packet{
			Eth:  testEth(),
			IPv4: &IPv4{TTL: 64, Protocol: ProtoUDP, FragOff: 100, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
			UDP:  &UDP{SrcPort: 1, DstPort: 2},
		})},
		{"dot11-deauth", LinkDot11, ser(&Packet{
			Dot11: &Dot11{
				Subtype: Dot11Deauth,
				Addr1:   MAC{1, 2, 3, 4, 5, 6}, Addr2: MAC{6, 5, 4, 3, 2, 1}, Addr3: MAC{9, 9, 9, 9, 9, 9},
				Seq: 77, Retry: true,
			},
			Payload: []byte{0x07, 0x00},
		})},
		{"dot11-data", LinkDot11, ser(&Packet{Dot11: &Dot11{Subtype: Dot11Data}})},
		{"http-response", LinkEthernet, tcpApp(80, EncodeHTTPResponse(404, 10))},
		{"http-post", LinkEthernet, tcpApp(8080, EncodeHTTPRequest("POST", "/data", "hub.local", 12))},
		// Keys differ in case; "hoſt" (U+017F) and "Keep" (Kelvin
		// sign) fold to host/keep under EqualFold but not under ToLower.
		{"http-folded-keys", LinkEthernet, tcpApp(80, []byte("GET /a HTTP/1.1\r\nHOST: up.example\r\n"+
			"Content-LENGTH: 7\r\nhoſt: spoof\r\n\u212aeep-Alive: 1\r\nuser-AGENT:  x/1 \r\n\r\nbody..."))},
		{"dns-0q", LinkEthernet, dns(0)},
		{"dns-2q", LinkEthernet, dns(2, "a.iot.example", "b.iot.example")},
		{"dns-17q", LinkEthernet, dns(17, qnames...)},
		{"dns-compressed", LinkEthernet, ser(&Packet{
			Eth:     testEth(),
			IPv4:    &IPv4{TTL: 64, Protocol: ProtoUDP, Src: ip4(192, 168, 1, 10), Dst: ip4(8, 8, 8, 8)},
			UDP:     &UDP{SrcPort: 53, DstPort: 5353},
			Payload: compressed,
		})},
		// A 4-byte remaining length (the maximum, 268435455) and QoS 3,
		// which is not MQTT.
		{"mqtt-remaining-4", LinkEthernet, tcpApp(1883, []byte{0x30, 0xff, 0xff, 0xff, 0x7f, 0, 3, 'a', '/', 'b'})},
		{"mqtt-qos3", LinkEthernet, tcpApp(8883, []byte{0x36, 2, 0, 0})},
	}
}

// allHints covers every decode depth a plan can request.
func allHints() []DecodeHint {
	return []DecodeHint{
		{},
		{Headers: true},
		{Headers: true, Apps: AppDNS},
		{Headers: true, Apps: AppHTTP},
		{Headers: true, Apps: AppMQTT},
		{Headers: true, Apps: AppDNS | AppHTTP | AppMQTT},
	}
}

// TestViewMaterializeMatchesDecode is the parser's core contract: for
// any frame, at any predecode depth, materializing a view (which is what
// Decode does) produces the exact packet the eager reference walk
// refDecode builds — including every truncation of every corpus frame.
func TestViewMaterializeMatchesDecode(t *testing.T) {
	ts := time.Unix(1700000000, 123456000).UTC()
	for _, c := range viewCorpus(t) {
		for cut := 0; cut <= len(c.raw); cut++ {
			data := c.raw[:cut]
			want := refDecode(data, c.link, ts)
			for _, hint := range allHints() {
				var v PacketView
				v.Reset(data, c.link, ts)
				v.Predecode(hint)
				got := v.Materialize()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cut=%d hint=%+v:\nview:  %+v\neager: %+v", c.name, cut, hint, got, want)
				}
			}
		}
	}
}

// TestViewAppAccessorsMatchDecode runs the differential fuzz property
// over every truncation of every corpus frame.
func TestViewAppAccessorsMatchDecode(t *testing.T) {
	for _, c := range viewCorpus(t) {
		for cut := 0; cut <= len(c.raw); cut++ {
			fuzzViewAgainstDecode(t, c.raw[:cut], c.link)
		}
	}
}

// TestViewAppCorpusFrames pins what the app-layer corpus frames decode
// to, so the differential tests compare meaningful layers.
func TestViewAppCorpusFrames(t *testing.T) {
	frames := map[string][]byte{}
	for _, c := range viewCorpus(t) {
		frames[c.name] = c.raw
	}
	view := func(name string) *PacketView {
		var v PacketView
		v.Reset(frames[name], LinkEthernet, time.Unix(1, 0))
		return &v
	}
	if h, ok := view("http-folded-keys").HTTP(); !ok || string(h.Host) != "up.example" ||
		string(h.UserAgent) != "x/1" || h.ContentLength != 7 || string(h.Path) != "/a" {
		t.Errorf("http-folded-keys: %+v ok=%v", h, ok)
	}
	if h, ok := view("http-response").HTTP(); !ok || h.IsRequest || h.Status != 404 || h.ContentLength != 10 {
		t.Errorf("http-response: %+v ok=%v", h, ok)
	}
	for name, want := range map[string]int{"dns-0q": 0, "dns-2q": 2, "dns-17q": 16, "dns-compressed": 1} {
		v := view(name)
		if d, ok := v.DNS(); !ok || len(dnsNames(d, v.Payload())) != want {
			t.Errorf("%s: names %q ok=%v, want %d names", name, dnsNames(d, v.Payload()), ok, want)
		}
	}
	if m, ok := view("mqtt-remaining-4").MQTT(); !ok || m.Remaining != 268435455 || string(m.Topic) != "a/b" {
		t.Errorf("mqtt-remaining-4: %+v ok=%v", m, ok)
	}
	if _, ok := view("mqtt-qos3").MQTT(); ok {
		t.Error("mqtt-qos3 decoded as MQTT")
	}
}

// TestViewAppDecodeAllocs: predecoding every app layer and reading every
// app accessor allocates nothing.
func TestViewAppDecodeAllocs(t *testing.T) {
	var apps []struct {
		name string
		link LinkType
		raw  []byte
	}
	for _, c := range viewCorpus(t) {
		if p := refDecode(c.raw, c.link, time.Time{}); p.DNS != nil || p.HTTP != nil || p.MQTT != nil {
			apps = append(apps, c)
		}
	}
	if len(apps) < 9 {
		t.Fatalf("corpus has %d app frames, want every DNS/HTTP/MQTT frame", len(apps))
	}
	hint := DecodeHint{Headers: true, Apps: AppDNS | AppHTTP | AppMQTT}
	var v PacketView
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range apps {
			v.Reset(c.raw, c.link, time.Time{})
			v.Predecode(hint)
			d, _ := v.DNS()
			h, _ := v.HTTP()
			m, _ := v.MQTT()
			n += int(d.QDCount) + len(h.Path) + len(h.Host) + len(m.Topic)
		}
	})
	if allocs != 0 {
		t.Fatalf("app decode allocates %.1f times per pass over %d frames, want 0", allocs, len(apps))
	}
}

// TestPacketViewSize pins the view's size. Views are pooled one per
// chunk row, so every byte costs the header-only passes too: the app
// layers are a presence bit each and HTTP's three header fields, in the
// 24 bytes three layer pointers took, not their full structs (+176 B).
// Lower the budget when the view shrinks.
func TestPacketViewSize(t *testing.T) {
	if got := unsafe.Sizeof(PacketView{}); got > 392 {
		t.Fatalf("PacketView is %d bytes, budget 392", got)
	}
}

// TestViewLazyAccessors: layers decode on first touch, and only to the
// depth the accessor needs.
func TestViewLazyAccessors(t *testing.T) {
	c := viewCorpus(t)[3] // udp-dns
	var v PacketView
	v.Reset(c.raw, c.link, time.Unix(1, 0))
	if v.HeadersDecoded() {
		t.Fatal("fresh view must not have decoded headers")
	}
	if v.WireLen() != len(c.raw) {
		t.Fatalf("WireLen = %d, want %d", v.WireLen(), len(c.raw))
	}
	u, ok := v.UDP()
	if !ok || u.DstPort != 53 {
		t.Fatalf("UDP accessor: %+v ok=%v", u, ok)
	}
	if !v.HeadersDecoded() {
		t.Fatal("UDP accessor must decode headers")
	}
	if v.AppDecoded() {
		t.Fatal("UDP accessor must not decode app layers")
	}
	d, ok := v.DNS()
	if !ok || d.ID != 7 || len(dnsNames(d, v.Payload())) != 1 || dnsNames(d, v.Payload())[0] != "camera.iot.example.com" {
		t.Fatalf("DNS accessor: %+v ok=%v", d, ok)
	}
	if !v.AppDecoded() {
		t.Fatal("DNS accessor must decode the app layer")
	}
}

// TestViewResetClearsState: a pooled view reused across packets must not
// leak the previous packet's layers.
func TestViewResetClearsState(t *testing.T) {
	corp := viewCorpus(t)
	var v PacketView
	v.Reset(corp[0].raw, corp[0].link, time.Unix(1, 0)) // tcp-http
	if _, ok := v.HTTP(); !ok {
		t.Fatal("http expected on first packet")
	}
	v.Reset(corp[6].raw, corp[6].link, time.Unix(2, 0)) // arp
	if _, ok := v.TCP(); ok {
		t.Fatal("stale TCP layer after Reset")
	}
	if _, ok := v.HTTP(); ok {
		t.Fatal("stale HTTP layer after Reset")
	}
	a, ok := v.ARP()
	if !ok || a.Op != 1 {
		t.Fatalf("ARP after Reset: %+v ok=%v", a, ok)
	}
	if got := v.Materialize(); !reflect.DeepEqual(got, refDecode(corp[6].raw, corp[6].link, time.Unix(2, 0))) {
		t.Fatal("materialize after reuse differs from refDecode")
	}
}

// TestViewSummaryMatchesPacket: the flow assembler consumes summaries, so
// a view summary must match the summary of the reference-decoded packet.
func TestViewSummaryMatchesPacket(t *testing.T) {
	ts := time.Unix(1700000000, 0)
	for _, c := range viewCorpus(t) {
		var v PacketView
		v.Reset(c.raw, c.link, ts)
		got := v.Summary()
		want := refDecode(c.raw, c.link, ts).Summary()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: summary mismatch:\nview:  %+v\neager: %+v", c.name, got, want)
		}
	}
}

// TestViewTupleAndEndpoints: the convenience accessors agree with the
// materialized packet.
func TestViewTupleAndEndpoints(t *testing.T) {
	ts := time.Unix(5, 0)
	for _, c := range viewCorpus(t) {
		var v PacketView
		v.Reset(c.raw, c.link, ts)
		p := refDecode(c.raw, c.link, ts)
		wantT, wantOK := p.Tuple()
		gotT, gotOK := v.Tuple()
		if gotOK != wantOK || gotT != wantT {
			t.Fatalf("%s: tuple %+v/%v, want %+v/%v", c.name, gotT, gotOK, wantT, wantOK)
		}
		if v.Protocol() != p.Protocol() {
			t.Fatalf("%s: proto %d, want %d", c.name, v.Protocol(), p.Protocol())
		}
		if string(v.Payload()) != string(p.Payload) {
			t.Fatalf("%s: payload %q, want %q", c.name, v.Payload(), p.Payload)
		}
	}
}
