package dataset

import (
	"bytes"
	"reflect"
	"testing"

	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// TestGeneratedPacketsAreTheirWireBytes pins the property the engine's
// single packet representation rests on: a view over a generated
// packet's wire bytes (how SliceSource and batch runs read datasets) sees
// exactly the packet the generator built — Decode(p.Data, link, p.Ts)
// deep-equals p for every packet of every registered dataset.
func TestGeneratedPacketsAreTheirWireBytes(t *testing.T) {
	for _, spec := range Registry() {
		ds := spec.Generate(1)
		for i, p := range ds.Packets {
			if got := netpkt.Decode(p.Data, ds.Link, p.Ts); !reflect.DeepEqual(got, p) {
				t.Fatalf("%s packet %d: decode of its wire bytes differs:\ndecoded:   %+v\ngenerated: %+v", spec.ID, i, got, p)
			}
		}
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
				if err := w.WritePacket(p); err != nil {
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
