package core

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/features"
	"lumen/internal/netpkt"
)

// The packet ops read netpkt.PacketViews — the engine's only packet
// representation. This file is their reference: a small table that reads
// every value the ops produce off the materialized *netpkt.Packet of the
// same frame, in the plainest way possible. The ops must agree with it on
// a protocol corpus (every layer the decoder knows, at every truncation)
// and on real traffic from every registered dataset.

// refFrame is one raw record the ops and the oracle both decode.
type refFrame struct {
	link netpkt.LinkType
	ts   time.Time
	raw  []byte
}

// protocolCorpus covers both link types, both IP versions, all L4
// protocols, every app protocol, TCP options, fragments and non-IP
// frames — each at every truncation, one millisecond apart.
func protocolCorpus(t testing.TB) []refFrame {
	t.Helper()
	ip4 := func(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }
	eth := func() *netpkt.Ethernet {
		return &netpkt.Ethernet{Dst: netpkt.MAC{2, 0, 0, 0, 0, 2}, Src: netpkt.MAC{2, 0, 0, 0, 0, 1}, EtherType: netpkt.EtherTypeIPv4}
	}
	pkts := []*netpkt.Packet{
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 64, TOS: 3, ID: 7, Protocol: netpkt.ProtoTCP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2)},
			TCP:     &netpkt.TCP{SrcPort: 41000, DstPort: 80, Seq: 5, Ack: 6, Flags: netpkt.FlagACK | netpkt.FlagPSH, Window: 1024},
			Payload: netpkt.EncodeHTTPRequest("GET", "/fw", "iot.example", 0)},
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoTCP, Src: ip4(10, 0, 0, 2), Dst: ip4(10, 0, 0, 1)},
			TCP:     &netpkt.TCP{SrcPort: 80, DstPort: 41000, Flags: netpkt.FlagACK | netpkt.FlagFIN | netpkt.FlagURG},
			Payload: netpkt.EncodeHTTPResponse(404, 12)},
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 32, Protocol: netpkt.ProtoTCP, Src: ip4(10, 0, 0, 3), Dst: ip4(10, 0, 0, 4)},
			TCP:     &netpkt.TCP{SrcPort: 52000, DstPort: 1883, Flags: netpkt.FlagACK},
			Payload: netpkt.EncodeMQTTPublish("home/sensor0/temp", 12)},
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoTCP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 2)},
			TCP:     &netpkt.TCP{SrcPort: 1000, DstPort: 2000, Flags: netpkt.FlagSYN | netpkt.FlagRST, MSS: 1460, WScale: 7, SACKOK: true},
			Payload: []byte("x")},
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoUDP, Src: ip4(192, 168, 1, 10), Dst: ip4(8, 8, 8, 8)},
			UDP:     &netpkt.UDP{SrcPort: 5353, DstPort: 53},
			Payload: netpkt.EncodeDNSQuery(7, "camera.iot.example.com", true)},
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoUDP, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
			UDP: &netpkt.UDP{SrcPort: 9999, DstPort: 8888}, Payload: []byte("telemetry")},
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoICMP, Src: ip4(10, 0, 0, 1), Dst: ip4(10, 0, 0, 99)},
			ICMP: &netpkt.ICMP{Type: 8, Code: 1, ID: 3, Seq: 4}, Payload: []byte("ping")},
		{Eth: &netpkt.Ethernet{Dst: netpkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Src: netpkt.MAC{2, 0, 0, 0, 0, 9}},
			ARP: &netpkt.ARP{Op: 1, SenderHW: netpkt.MAC{2, 0, 0, 0, 0, 9}, SenderIP: ip4(10, 0, 0, 9), TargetIP: ip4(10, 0, 0, 1)}},
		{Eth: &netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv6},
			IPv6: &netpkt.IPv6{NextHeader: netpkt.ProtoUDP, HopLimit: 64, Src: netip.MustParseAddr("fd00::1"), Dst: netip.MustParseAddr("fd00::2")},
			UDP:  &netpkt.UDP{SrcPort: 546, DstPort: 547}, Payload: []byte("dhcpv6ish")},
		{Eth: eth(), IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoUDP, FragOff: 100, Src: ip4(1, 1, 1, 1), Dst: ip4(2, 2, 2, 2)},
			UDP: &netpkt.UDP{SrcPort: 1, DstPort: 2}},
		{Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Deauth, Addr1: netpkt.MAC{1, 2, 3, 4, 5, 6}, Addr2: netpkt.MAC{6, 5, 4, 3, 2, 1},
			Addr3: netpkt.MAC{9, 9, 9, 9, 9, 9}, Seq: 77, Retry: true, Duration: 314}, Payload: []byte{0x07, 0x00}},
		{Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Data, Addr2: netpkt.MAC{6, 5, 4, 3, 2, 1}}},
	}
	var out []refFrame
	ts := time.Unix(1700000000, 0).UTC()
	for _, p := range pkts {
		raw, err := p.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(raw); cut++ {
			ts = ts.Add(time.Millisecond)
			out = append(out, refFrame{link: p.Link, ts: ts, raw: raw[:cut]})
		}
	}
	return out
}

// datasetFrames returns the first n records of a generated dataset.
func datasetFrames(ds *dataset.Labeled, n int) []refFrame {
	if n > len(ds.Packets) {
		n = len(ds.Packets)
	}
	out := make([]refFrame, n)
	for i, p := range ds.Packets[:n] {
		out[i] = refFrame{link: ds.Link, ts: p.Ts, raw: p.Data}
	}
	return out
}

// viewsOf builds fresh, undecoded views over the frames.
func viewsOf(frames []refFrame) []netpkt.PacketView {
	views := make([]netpkt.PacketView, len(frames))
	for i, f := range frames {
		views[i].Reset(f.raw, f.link, f.ts)
	}
	return views
}

func flag(p *netpkt.Packet, f uint8) float64 { return b2f(p.TCP != nil && p.TCP.Flags&f == f) }

// refNumeric reads numeric field f off the materialized packet; prev
// is the preceding packet of the value (nil for the first), for iat.
func refNumeric(t *testing.T, f string, p, prev *netpkt.Packet) float64 {
	switch f {
	case "ts":
		return pktTime(p.Ts)
	case "iat":
		if prev == nil {
			return 0
		}
		return pktTime(p.Ts) - pktTime(prev.Ts)
	case "len":
		return float64(len(p.Data))
	case "payload_len":
		return float64(len(p.Payload))
	case "proto":
		return float64(p.Protocol())
	case "src_port":
		return float64(p.SrcPort())
	case "dst_port":
		return float64(p.DstPort())
	case "is_arp":
		return b2f(p.ARP != nil)
	case "is_tcp":
		return b2f(p.TCP != nil)
	case "is_udp":
		return b2f(p.UDP != nil)
	case "is_icmp":
		return b2f(p.ICMP != nil)
	case "is_http":
		return b2f(p.HTTP != nil)
	case "is_mqtt":
		return b2f(p.MQTT != nil)
	case "tcp_syn":
		return flag(p, netpkt.FlagSYN)
	case "tcp_ack":
		return flag(p, netpkt.FlagACK)
	case "tcp_fin":
		return flag(p, netpkt.FlagFIN)
	case "tcp_rst":
		return flag(p, netpkt.FlagRST)
	case "tcp_psh":
		return flag(p, netpkt.FlagPSH)
	case "tcp_urg":
		return flag(p, netpkt.FlagURG)
	}
	// The remaining fields read one layer and are 0 without it.
	switch {
	case p.IPv4 != nil && f == "ttl":
		return float64(p.IPv4.TTL)
	case p.IPv4 != nil && f == "ip_id":
		return float64(p.IPv4.ID)
	case p.IPv4 != nil && f == "ip_tos":
		return float64(p.IPv4.TOS)
	case p.TCP != nil && f == "tcp_flags":
		return float64(p.TCP.Flags)
	case p.TCP != nil && f == "tcp_window":
		return float64(p.TCP.Window)
	case p.UDP != nil && f == "udp_len":
		return float64(p.UDP.Length)
	case p.ICMP != nil && f == "icmp_type":
		return float64(p.ICMP.Type)
	case p.ICMP != nil && f == "icmp_code":
		return float64(p.ICMP.Code)
	case p.DNS != nil && f == "dns_qr":
		return b2f(p.DNS.QR)
	case p.DNS != nil && f == "dns_qd":
		return float64(p.DNS.QDCount)
	case p.HTTP != nil && f == "http_is_req":
		return b2f(p.HTTP.IsRequest)
	case p.HTTP != nil && f == "http_status":
		return float64(p.HTTP.Status)
	case p.HTTP != nil && f == "http_path_len":
		return float64(len(p.HTTP.Path))
	case p.HTTP != nil && f == "http_body_len":
		if p.HTTP.ContentLength > 0 {
			return float64(p.HTTP.ContentLength)
		}
		return 0
	case p.MQTT != nil && f == "mqtt_type":
		return float64(p.MQTT.Type)
	case p.MQTT != nil && f == "mqtt_qos":
		return float64(p.MQTT.QoS)
	case p.MQTT != nil && f == "mqtt_topic_len":
		return float64(len(p.MQTT.Topic))
	}
	switch f {
	case "ttl", "ip_id", "ip_tos", "tcp_flags", "tcp_window", "udp_len", "icmp_type", "icmp_code",
		"dns_qr", "dns_qd", "http_is_req", "http_status", "http_path_len", "http_body_len",
		"mqtt_type", "mqtt_qos", "mqtt_topic_len":
		return 0
	}
	t.Fatalf("oracle has no entry for numeric field %q", f)
	return 0
}

// refString reads string field f off the materialized packet: IP
// endpoints (ARP's when there is no IP header), MACs standing in on
// 802.11.
func refString(t *testing.T, f string, p *netpkt.Packet) string {
	ipOr := func(a netip.Addr, mac func(*netpkt.Dot11) netpkt.MAC) string {
		switch {
		case a.IsValid():
			return a.String()
		case p.Dot11 != nil:
			return mac(p.Dot11).String()
		}
		return ""
	}
	macOr := func(eth func(*netpkt.Ethernet) netpkt.MAC, mac func(*netpkt.Dot11) netpkt.MAC) string {
		switch {
		case p.Eth != nil:
			return eth(p.Eth).String()
		case p.Dot11 != nil:
			return mac(p.Dot11).String()
		}
		return ""
	}
	tx := func(d *netpkt.Dot11) netpkt.MAC { return d.Addr2 }
	rx := func(d *netpkt.Dot11) netpkt.MAC { return d.Addr1 }
	switch f {
	case "src_ip":
		return ipOr(p.SrcIP(), tx)
	case "dst_ip":
		return ipOr(p.DstIP(), rx)
	case "src_mac":
		return macOr(func(e *netpkt.Ethernet) netpkt.MAC { return e.Src }, tx)
	case "dst_mac":
		return macOr(func(e *netpkt.Ethernet) netpkt.MAC { return e.Dst }, rx)
	}
	t.Fatalf("oracle has no entry for string field %q", f)
	return ""
}

// refShape is the nprint input read off the materialized packet.
func refShape(p *netpkt.Packet) features.Shape {
	return features.Shape{
		Raw: p.Data, Link: p.Link,
		HasIPv4: p.IPv4 != nil, HasTCP: p.TCP != nil, HasUDP: p.UDP != nil, HasICMP: p.ICMP != nil,
		PayloadLen: len(p.Payload),
	}
}

// refKitsuneKeys are Kitsune's source / channel / socket grouping
// keys: IP endpoints, else 802.11 MACs, else Ethernet MACs.
func refKitsuneKeys(p *netpkt.Packet) (src, channel, socket string) {
	pair := func(a, b fmt.Stringer) (string, string, string) {
		ch := a.String() + ">" + b.String()
		return a.String(), ch, ch
	}
	switch {
	case p.SrcIP().IsValid():
		src, channel, socket = pair(p.SrcIP(), p.DstIP())
		if ft, ok := p.Tuple(); ok {
			socket = ft.String()
		}
		return src, channel, socket
	case p.Dot11 != nil:
		return pair(p.Dot11.Addr2, p.Dot11.Addr1)
	case p.Eth != nil:
		return pair(p.Eth.Src, p.Eth.Dst)
	}
	return "?", "?", "?"
}

// refKitsuneStreams and refKitsuneFold are kitsune_features as it
// was before its keys became structs: one string-keyed map per decay
// rate holding heap statistics under "", "c|" and "s|" prefixes, plus a
// last-seen map per rate. Kept as the reference the op's columns must
// match bit for bit.
type refKitsuneStreams struct {
	src, jitter *features.IncStat
	two         *features.IncStat2D
}

type refKitsuneFold struct {
	perLambda []map[string]*refKitsuneStreams
	lastSeen  []map[string]float64
}

func newRefKitsuneFold(lambdas []float64) *refKitsuneFold {
	o := &refKitsuneFold{}
	for range lambdas {
		o.perLambda = append(o.perLambda, map[string]*refKitsuneStreams{})
		o.lastSeen = append(o.lastSeen, map[string]float64{})
	}
	return o
}

func (o *refKitsuneFold) fold(lambdas []float64, cols [][]float64, i int, t, size, payLen float64, srcKey, chanKey, sockKey string) {
	for li, lam := range lambdas {
		get := func(key string) *refKitsuneStreams {
			st := o.perLambda[li][key]
			if st == nil {
				st = &refKitsuneStreams{src: &features.IncStat{Lambda: lam}, jitter: &features.IncStat{Lambda: lam}, two: features.NewIncStat2D(lam)}
				o.perLambda[li][key] = st
			}
			return st
		}
		st := get(srcKey)
		if last, ok := o.lastSeen[li][chanKey]; ok {
			st.jitter.Insert(t-last, t)
		}
		o.lastSeen[li][chanKey] = t
		st.src.Insert(size, t)
		cst := get("c|" + chanKey)
		cst.src.Insert(size, t)
		cst.two.Insert(size, payLen, t)
		sst := get("s|" + sockKey)
		sst.src.Insert(size, t)

		base := li * 13
		cols[base+0][i] = st.src.Weight()
		cols[base+1][i] = st.src.Mean()
		cols[base+2][i] = st.src.Std()
		cols[base+3][i] = cst.src.Weight()
		cols[base+4][i] = cst.src.Mean()
		cols[base+5][i] = cst.src.Std()
		cols[base+6][i] = sst.src.Weight()
		cols[base+7][i] = sst.src.Mean()
		cols[base+8][i] = sst.src.Std()
		cols[base+9][i] = st.jitter.Mean()
		cols[base+10][i] = st.jitter.Std()
		cols[base+11][i] = cst.two.Magnitude()
		cols[base+12][i] = cst.two.Cov()
	}
}

// refKitsuneColumns folds the materialized packets through the string-
// keyed reference.
func refKitsuneColumns(pkts []*netpkt.Packet, lambdas []float64) [][]float64 {
	cols := make([][]float64, 13*len(lambdas))
	for j := range cols {
		cols[j] = make([]float64, len(pkts))
	}
	o := newRefKitsuneFold(lambdas)
	for i, p := range pkts {
		src, ch, sock := refKitsuneKeys(p)
		o.fold(lambdas, cols, i, pktTime(p.Ts), float64(len(p.Data)), float64(len(p.Payload)), src, ch, sock)
	}
	return cols
}

// keyPairing checks that struct keys and the oracle's string keys
// partition packets identically within one grouping: equal structs if
// and only if equal strings.
type keyPairing struct {
	byKey map[kitsuneKey]string
	byStr map[string]kitsuneKey
}

func newKeyPairing() *keyPairing {
	return &keyPairing{byKey: map[kitsuneKey]string{}, byStr: map[string]kitsuneKey{}}
}

func (kp *keyPairing) add(t testing.TB, grouping string, i int, k kitsuneKey, s string) {
	t.Helper()
	if prev, ok := kp.byKey[k]; ok && prev != s {
		t.Fatalf("kitsune %s key, packet %d: struct key %+v stands for both %q and %q", grouping, i, k, prev, s)
	}
	if prev, ok := kp.byStr[s]; ok && prev != k {
		t.Fatalf("kitsune %s key, packet %d: %q splits into struct keys %+v and %+v", grouping, i, s, prev, k)
	}
	kp.byKey[k], kp.byStr[s] = s, k
}

// checkPacketOps holds every packet op to the oracle over one frame set.
func checkPacketOps(t *testing.T, frames []refFrame) {
	t.Helper()
	ref := viewsOf(frames)
	pkts := make([]*netpkt.Packet, len(ref))
	for i := range ref {
		pkts[i] = ref[i].Materialize()
	}
	input := func() []Value { return []Value{Packets{DS: &dataset.Labeled{}, Views: viewsOf(frames)}} }
	col := func(v Value, name string) *Column {
		c := v.(*Frame).Col(name)
		if c == nil {
			t.Fatalf("op produced no column %q", name)
		}
		return c
	}

	packetFields := allPacketFields()
	fields := make([]any, len(packetFields))
	for i, f := range packetFields {
		fields[i] = f
	}
	fe, err := opFieldExtract(chunkCtx(), input(), params{"fields": fields})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range packetFields {
		c := col(fe, f)
		for i, p := range pkts {
			if c.IsNumeric() {
				var prev *netpkt.Packet
				if i > 0 {
					prev = pkts[i-1]
				}
				if want := refNumeric(t, f, p, prev); c.F[i] != want {
					t.Fatalf("field_extract %s, packet %d: view %v, materialized %v", f, i, c.F[i], want)
				}
			} else if want := refString(t, f, p); c.S[i] != want {
				t.Fatalf("field_extract %s, packet %d: view %q, materialized %q", f, i, c.S[i], want)
			}
		}
	}

	for variant, cfg := range map[string]features.NPrintConfig{
		"all": features.NPrintAll, "tcp_udp_ipv4": features.NPrintTCPUDPIPv4,
		"tcp_udp_ipv4_payload": features.NPrintWithPayload, "tcp_icmp_ipv4": features.NPrintTCPICMPIPv4,
	} {
		np, err := opNPrint(chunkCtx(), input(), params{"variant": variant})
		if err != nil {
			t.Fatal(err)
		}
		rows := np.(*Frame).Matrix()
		want := make([]float64, cfg.Width())
		for i, p := range pkts {
			cfg.FillRow(want, refShape(p))
			if !reflect.DeepEqual(rows[i], want) {
				t.Fatalf("nprint %s, packet %d: view row differs from the materialized packet's", variant, i)
			}
		}
	}

	keyViews := viewsOf(frames)
	srcs, chans, socks := newKeyPairing(), newKeyPairing(), newKeyPairing()
	for i, p := range pkts {
		gs, gc, gk := kitsuneKeys(&keyViews[i])
		ws, wc, wk := refKitsuneKeys(p)
		srcs.add(t, "source", i, gs, ws)
		chans.add(t, "channel", i, gc, wc)
		socks.add(t, "socket", i, gk, wk)
	}
	for _, lambdas := range [][]float64{{1, 0.1, 0.01}, {5, 3, 1, 0.1, 0.01}, {0.5, 0}} {
		list := make([]any, len(lambdas))
		for i, l := range lambdas {
			list[i] = l
		}
		kf, err := opKitsuneFeatures(chunkCtx(), input(), params{"lambdas": list})
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range refKitsuneColumns(pkts, lambdas) {
			got := kf.(*Frame).Cols[j]
			for i := range want {
				if math.Float64bits(got.F[i]) != math.Float64bits(want[i]) {
					t.Fatalf("kitsune_features %v, column %s, packet %d: %v, string-keyed reference %v", lambdas, got.Name, i, got.F[i], want[i])
				}
			}
		}
	}

	const lam = 0.5
	d11, err := opDot11Features(chunkCtx(), input(), params{"lambda": lam})
	if err != nil {
		t.Fatal(err)
	}
	n := len(pkts)
	want := &dot11Fill{
		subtype: make([]float64, n), mgmt: make([]float64, n), retry: make([]float64, n),
		duration: make([]float64, n), rate: make([]float64, n), deauthRate: make([]float64, n), plen: make([]float64, n),
		perTx: map[netpkt.MAC]*dot11Tx{}, lam: lam,
	}
	for i, p := range pkts {
		if p.Dot11 != nil {
			want.fold(i, p.Dot11, pktTime(p.Ts), float64(len(p.Payload)))
		}
	}
	for name, w := range map[string][]float64{
		"subtype": want.subtype, "is_mgmt": want.mgmt, "retry": want.retry, "duration": want.duration,
		"tx_rate": want.rate, "tx_deauth_rate": want.deauthRate, "payload_len": want.plen,
	} {
		if got := col(d11, name).F; !reflect.DeepEqual(got, w) {
			t.Fatalf("dot11_features %s: view column differs from the materialized packets'", name)
		}
	}
}

// TestPacketOpsMatchMaterializedOracle: every field_extract field, the
// four nprint variants, the Kitsune grouping keys and feature columns and
// dot11_features, computed from views, equal the values read off the
// materialized packets — on the protocol corpus and on the first 200
// packets of every registered dataset.
func TestPacketOpsMatchMaterializedOracle(t *testing.T) {
	t.Run("protocol-corpus", func(t *testing.T) { checkPacketOps(t, protocolCorpus(t)) })
	for _, spec := range dataset.Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) { checkPacketOps(t, datasetFrames(spec.Generate(0.05), 200)) })
	}
}

// allPacketFields lists every field field_extract knows, in catalogue
// order.
func allPacketFields() []string {
	var names []string
	for _, g := range packetFieldGroups {
		names = append(names, g.names...)
	}
	return names
}
