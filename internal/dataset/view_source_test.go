package dataset

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// TestGeneratedPacketsAreTheirWireBytes pins the property a generated
// dataset rests on: it is the capture of the packets the simulator
// built. Each record is the serialization of one builder packet, and
// decoding it at the dataset's link type gives back exactly that packet,
// for every packet of every registered dataset. Builder packets carry
// no application layer; a decode derives DNS/HTTP/MQTT from the ports
// and payload, which the comparison covers.
func TestGeneratedPacketsAreTheirWireBytes(t *testing.T) {
	type built struct {
		p *netpkt.Packet
		r *Record
	}
	var seen []built
	onAdd = func(p *netpkt.Packet, r *Record) { seen = append(seen, built{p, r}) }
	defer func() { onAdd = nil }()
	for _, spec := range Registry() {
		seen = seen[:0]
		ds := spec.Generate(1)
		if len(seen) != len(ds.Packets) {
			t.Fatalf("%s: %d packets built, %d records kept", spec.ID, len(seen), len(ds.Packets))
		}
		kept := make(map[*Record]bool, len(ds.Packets))
		for _, r := range ds.Packets {
			kept[r] = true
		}
		for i, b := range seen {
			if !kept[b.r] {
				t.Fatalf("%s: built packet %d's record is not in the dataset", spec.ID, i)
			}
			got := netpkt.Decode(b.r.Data, ds.Link, b.r.Ts)
			got.DNS, got.HTTP, got.MQTT = nil, nil, nil
			if !reflect.DeepEqual(got, b.p) {
				t.Fatalf("%s packet %d: decode of its wire bytes differs:\ndecoded:   %+v\ngenerated: %+v", spec.ID, i, got, b.p)
			}
		}
	}
}

// TestGeneratedDatasetHeapPerPacket bounds what a generated dataset
// holds: the live heap of all 15 registry datasets at scale 0.25, after
// a collection, is under twice their wire bytes a packet. A dataset
// keeps each packet's timestamp and bytes, not a decoded packet.
func TestGeneratedDatasetHeapPerPacket(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var sets []*Labeled
	for _, spec := range Registry() {
		sets = append(sets, spec.Generate(0.25))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	pkts, wire := 0, 0
	for _, ds := range sets {
		for _, p := range ds.Packets {
			pkts++
			wire += len(p.Data)
		}
	}
	runtime.KeepAlive(sets)
	perPkt := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(pkts)
	meanWire := float64(wire) / float64(pkts)
	t.Logf("%d packets, %.0f wire bytes and %.0f heap bytes a packet (%.2fx)", pkts, meanWire, perPkt, perPkt/meanWire)
	if perPkt >= 2*meanWire {
		t.Fatalf("datasets hold %.0f B of heap a packet, want < 2x the %.0f B mean wire length", perPkt, meanWire)
	}
}

// TestViewsMatchReadAllAcrossRegistry replays the first chunk of every
// registered dataset through PcapSource: its predecoded, materialized
// views must be identical to the packets pcap.Reader.ReadAll decodes
// record by record from the same bytes, on each dataset's real traffic
// mix (every link type, protocol blend and attack shape the generators
// produce).
func TestViewsMatchReadAllAcrossRegistry(t *testing.T) {
	const rows = 200
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			ds := spec.Generate(0.05)
			n := len(ds.Packets)
			if n > rows {
				n = rows
			}
			if n == 0 {
				t.Skip("generator produced no packets at this scale")
			}
			var buf bytes.Buffer
			w, err := pcap.NewWriter(&buf, ds.Link)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ds.Packets[:n] {
				if err := w.WriteRaw(p.Ts, p.Data); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()

			rd, err := pcap.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			want, err := rd.ReadAll()
			if err != nil {
				t.Fatal(err)
			}

			lazy, err := NewPcapSource(spec.ID, bytes.NewReader(raw), spec.Granularity)
			if err != nil {
				t.Fatal(err)
			}
			hint := netpkt.DecodeHint{Headers: true, Apps: netpkt.AppDNS | netpkt.AppHTTP | netpkt.AppMQTT}
			if !lazy.ConfigureViews(true, hint) {
				t.Fatal("ConfigureViews refused view mode")
			}
			lck, ok := lazy.Next(rows, 0)
			if !ok || lazy.Err() != nil {
				t.Fatalf("lazy chunk: ok=%v err=%v", ok, lazy.Err())
			}
			if len(lck.Views) != len(want) {
				t.Fatalf("chunk has %d views, ReadAll %d packets", len(lck.Views), len(want))
			}
			for i := range lck.Views {
				got := lck.Views[i].Materialize()
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("packet %d differs:\nview:  %+v\neager: %+v", i, got, want[i])
				}
			}
		})
	}
}
