package daemon

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// TestViewProducersResetReusedSlots: the three producers of chunk views
// (dataset.AppendViews, the feed's cut and pcap.ReadViews) each take a
// view slice whose slots last held decoded TCP+HTTP, 802.11 and
// truncated packets and fill it with ARP and UDP records. Every view
// must equal a fresh view of its record given the same decode hint, as
// a whole and through Materialize and the app accessors: no state of a
// slot's previous packet survives. A slice reaches pcap.ReadViews only
// through its pool, which clears it on the way in.
func TestViewProducersResetReusedSlots(t *testing.T) {
	ser := func(p *netpkt.Packet) []byte {
		raw, err := p.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	eth := func(typ uint16) *netpkt.Ethernet {
		return &netpkt.Ethernet{Dst: netpkt.MAC{2, 0, 0, 0, 0, 2}, Src: netpkt.MAC{2, 0, 0, 0, 0, 1}, EtherType: typ}
	}
	ip := func(proto uint8, a, b byte) *netpkt.IPv4 {
		return &netpkt.IPv4{TTL: 64, Protocol: proto, Src: netip.AddrFrom4([4]byte{10, 0, 0, a}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, b})}
	}
	http := ser(&netpkt.Packet{Eth: eth(netpkt.EtherTypeIPv4), IPv4: ip(netpkt.ProtoTCP, 1, 2),
		TCP:     &netpkt.TCP{SrcPort: 41000, DstPort: 80, Flags: netpkt.FlagACK | netpkt.FlagPSH, Window: 512},
		Payload: netpkt.EncodeHTTPRequest("GET", "/fw", "iot.example", 0)})
	old := []struct {
		link netpkt.LinkType
		data []byte
	}{
		{netpkt.LinkEthernet, http},
		{netpkt.LinkDot11, ser(&netpkt.Packet{Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Deauth, Addr2: netpkt.MAC{9, 9, 9, 9, 9, 9}, Seq: 4}})},
		{netpkt.LinkEthernet, http[:40]}, // cut inside the TCP header
	}
	dirty := func() []netpkt.PacketView {
		var s []netpkt.PacketView
		for i := 0; i < 4; i++ {
			for _, o := range old {
				s = netpkt.AppendView(s, o.data, o.link, time.Unix(99, 0))
				v := &s[len(s)-1]
				v.Materialize()
				v.HTTP()
				v.DNS()
				v.MQTT()
				v.Dot11()
			}
		}
		if _, ok := s[0].HTTP(); !ok || s[2].Materialize().TruncatedLayer == "" {
			t.Fatal("the first packets must decode as HTTP and truncated")
		}
		return s[:0]
	}

	arp := ser(&netpkt.Packet{Eth: eth(netpkt.EtherTypeARP), ARP: &netpkt.ARP{Op: 1,
		SenderIP: netip.AddrFrom4([4]byte{10, 0, 0, 7}), TargetIP: netip.AddrFrom4([4]byte{10, 0, 0, 8})}})
	dns := ser(&netpkt.Packet{Eth: eth(netpkt.EtherTypeIPv4), IPv4: ip(netpkt.ProtoUDP, 3, 4), UDP: &netpkt.UDP{SrcPort: 5353, DstPort: 53},
		Payload: netpkt.EncodeDNSQuery(7, "camera.iot.example", false)})
	var recs []*dataset.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, &dataset.Record{Ts: time.Unix(int64(i), 5000), Data: [][]byte{arp, dns}[i%2]})
	}
	hint := netpkt.DecodeHint{Headers: true, Apps: netpkt.AppDNS | netpkt.AppHTTP | netpkt.AppMQTT}
	check := func(producer string, views []netpkt.PacketView) {
		t.Helper()
		if len(views) != len(recs) {
			t.Fatalf("%s: %d views, want %d", producer, len(views), len(recs))
		}
		for i := range views {
			v := &views[i]
			var fresh netpkt.PacketView
			fresh.Reset(recs[i].Data, netpkt.LinkEthernet, recs[i].Ts)
			fresh.Predecode(hint)
			if !v.Ts.Equal(fresh.Ts) {
				t.Fatalf("%s: view %d stamped %v, want %v", producer, i, v.Ts, fresh.Ts)
			}
			v.Ts = fresh.Ts // the feed's stamp is the same instant in UTC
			if !reflect.DeepEqual(*v, fresh) {
				t.Fatalf("%s: view %d differs from a fresh view of its record\n got: %+v\nwant: %+v", producer, i, *v, fresh)
			}
			for name, pair := range map[string][2]any{
				"Materialize": {v.Materialize(), fresh.Materialize()},
				"HTTP":        {pick(v.HTTP()), pick(fresh.HTTP())},
				"DNS":         {pick(v.DNS()), pick(fresh.DNS())},
				"MQTT":        {pick(v.MQTT()), pick(fresh.MQTT())},
				"Dot11":       {pick(v.Dot11()), pick(fresh.Dot11())},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s: view %d %s = %+v, a fresh view's %+v", producer, i, name, pair[0], pair[1])
				}
			}
		}
	}

	ds := &dataset.Labeled{Link: netpkt.LinkEthernet, Packets: recs}
	check("dataset.AppendViews", ds.AppendViews(dirty(), 0, len(recs), hint))

	var frames bytes.Buffer
	for _, r := range recs {
		if err := WriteFrame(&frames, r.Ts, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	slab := &feedSlab{buf: frames.Bytes()}
	slab.refs.Store(1)
	ref := &feedRef{views: dirty()}
	ref.slabs = ref.held[:0]
	ref.cut(&feedBatch{slab: slab, n: len(recs)}, netpkt.LinkEthernet, len(recs), frames.Len())
	for i := range ref.views {
		ref.views[i].Predecode(hint) // the feed takes no hint: its consumers decode on first touch
	}
	check("feed cut", ref.views)

	var capture bytes.Buffer
	w, err := pcap.NewWriter(&capture, netpkt.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.WriteRaw(r.Ts, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	pool := pcap.NewBufferPool()
	pool.PutViews(dirty())
	r, err := pcap.NewReader(&capture)
	if err != nil {
		t.Fatal(err)
	}
	r.SetBufferPool(pool)
	views, err := r.ReadViews(0, 0, hint)
	if err != nil {
		t.Fatal(err)
	}
	check("pcap.ReadViews", views)
}

// pick drops an accessor's ok, keeping the value the comparison needs.
func pick[T any](v T, ok bool) any {
	if !ok {
		return nil
	}
	return v
}
