package main

import (
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lumen/internal/flow"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

func TestRunOnGeneratedCapture(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(f, netpkt.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := &netpkt.Packet{
			Ts:  time.Unix(int64(i), 0),
			Eth: &netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
			IPv4: &netpkt.IPv4{
				TTL: 64, Protocol: netpkt.ProtoUDP,
				Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
				Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
			},
			UDP: &netpkt.UDP{SrcPort: 1000, DstPort: 53},
		}
		data, err := p.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRaw(p.Ts, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(path); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestConnlogMatchesBatchAssembly: the streamed conn.log must be byte-
// identical to assembling the whole capture at once.
func TestConnlogMatchesBatchAssembly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(f, netpkt.LinkEthernet)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(sec int64, sport, dport uint16, flags uint8) *netpkt.Packet {
		return &netpkt.Packet{
			Ts:  time.Unix(sec, 0),
			Eth: &netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
			IPv4: &netpkt.IPv4{
				TTL: 64, Protocol: netpkt.ProtoTCP,
				Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
				Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
			},
			TCP: &netpkt.TCP{SrcPort: sport, DstPort: dport, Flags: flags},
		}
	}
	// Two sessions on the same port pair separated by an idle gap, so the
	// streamed path evicts the first one mid-capture.
	pkts := []*netpkt.Packet{
		mk(0, 1234, 80, netpkt.FlagSYN),
		mk(1, 1234, 80, netpkt.FlagACK),
		mk(500, 1234, 80, netpkt.FlagSYN),
		mk(501, 1234, 80, netpkt.FlagACK),
	}
	for _, p := range pkts {
		data, err := p.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRaw(p.Ts, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var batch strings.Builder
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.ReadAll()
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := flow.WriteConnLog(&batch, flow.Connections(all, flow.Options{})); err != nil {
		t.Fatal(err)
	}

	// Capture runConnlog's stdout.
	old := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	errRun := runConnlog(path)
	pw.Close()
	os.Stdout = old
	streamed, _ := io.ReadAll(pr)
	if errRun != nil {
		t.Fatal(errRun)
	}
	if string(streamed) != batch.String() {
		t.Fatalf("streamed conn.log differs from batch:\n--- streamed ---\n%s--- batch ---\n%s", streamed, batch.String())
	}
	if !strings.Contains(batch.String(), "\n") || len(strings.Split(strings.TrimSpace(batch.String()), "\n")) < 3 {
		t.Fatalf("expected 2 connections plus header in conn.log:\n%s", batch.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run("/does/not/exist.pcap"); err == nil {
		t.Error("missing file should fail")
	}
}

// TestProtoNameClassification classifies views of serialized packets,
// one per protocol name.
func TestProtoNameClassification(t *testing.T) {
	eth := &netpkt.Ethernet{}
	ip := func(proto uint8) *netpkt.IPv4 {
		return &netpkt.IPv4{TTL: 64, Protocol: proto,
			Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2})}
	}
	cases := []struct {
		p    *netpkt.Packet
		want string
	}{
		{&netpkt.Packet{Eth: eth, IPv4: ip(netpkt.ProtoTCP), TCP: &netpkt.TCP{SrcPort: 1000, DstPort: 22}}, "tcp"},
		{&netpkt.Packet{Eth: eth, IPv4: ip(netpkt.ProtoUDP), UDP: &netpkt.UDP{SrcPort: 1000, DstPort: 123}}, "udp"},
		{&netpkt.Packet{Eth: eth, IPv4: ip(netpkt.ProtoICMP), ICMP: &netpkt.ICMP{Type: 8}}, "icmp"},
		{&netpkt.Packet{Eth: eth, ARP: &netpkt.ARP{Op: 1,
			SenderIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), TargetIP: netip.AddrFrom4([4]byte{10, 0, 0, 2})}}, "arp"},
		{&netpkt.Packet{Eth: eth, IPv4: ip(netpkt.ProtoUDP), UDP: &netpkt.UDP{SrcPort: 1000, DstPort: 53},
			Payload: netpkt.EncodeDNSQuery(7, "camera.iot.example", false)}, "dns"},
		{&netpkt.Packet{Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Beacon}}, "802.11m"},
		{&netpkt.Packet{Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Data}}, "802.11d"},
		{&netpkt.Packet{Eth: eth, IPv4: ip(47), Payload: []byte{0, 0, 8, 0}}, "other"},
	}
	for _, c := range cases {
		raw, err := c.p.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		var v netpkt.PacketView
		v.Reset(raw, c.p.Link, time.Time{})
		if got := protoNameView(&v); got != c.want {
			t.Errorf("protoNameView = %q, want %q", got, c.want)
		}
	}
}
