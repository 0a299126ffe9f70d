package dataset

import (
	"testing"

	"lumen/internal/netpkt"
)

// attackPackets returns the decoded packets of a dataset carrying the
// given attack label.
func attackPackets(ds *Labeled, attack string) []*netpkt.Packet {
	var out []*netpkt.Packet
	for i, a := range ds.Attacks {
		if a == attack {
			out = append(out, decode(ds, i))
		}
	}
	return out
}

// decode parses packet i of the dataset from its wire bytes.
func decode(ds *Labeled, i int) *netpkt.Packet {
	p := ds.Packets[i]
	return netpkt.Decode(p.Data, ds.Link, p.Ts)
}

// decodeAll parses every packet of the dataset.
func decodeAll(ds *Labeled) []*netpkt.Packet {
	out := make([]*netpkt.Packet, len(ds.Packets))
	for i := range out {
		out[i] = decode(ds, i)
	}
	return out
}

func TestSYNFloodSignature(t *testing.T) {
	spec, _ := Get("F1")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackSYNFlood)
	if len(pkts) < 50 {
		t.Fatalf("only %d synflood packets", len(pkts))
	}
	syn, other := 0, 0
	sports := map[uint16]bool{}
	for _, p := range pkts {
		if p.TCP == nil {
			t.Fatal("synflood packet without TCP")
		}
		if p.TCP.HasFlag(netpkt.FlagSYN) && !p.TCP.HasFlag(netpkt.FlagACK) {
			syn++
			sports[p.TCP.SrcPort] = true
		} else {
			other++
		}
	}
	if syn < other {
		t.Errorf("synflood should be SYN-dominated: %d SYN vs %d other", syn, other)
	}
	if len(sports) < 30 {
		t.Errorf("synflood uses only %d source ports; should be spread", len(sports))
	}
}

func TestPortScanSweepsManyPorts(t *testing.T) {
	spec, _ := Get("F6")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackPortScan)
	dports := map[uint16]bool{}
	for _, p := range pkts {
		if p.TCP != nil && p.TCP.HasFlag(netpkt.FlagSYN) && !p.TCP.HasFlag(netpkt.FlagACK) {
			dports[p.TCP.DstPort] = true
		}
	}
	if len(dports) < 40 {
		t.Errorf("portscan touched only %d ports", len(dports))
	}
}

func TestUDPFloodSpoofsManySources(t *testing.T) {
	spec, _ := Get("F3")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackUDPFlood)
	srcs := map[string]bool{}
	var bigPayloads int
	for _, p := range pkts {
		srcs[p.SrcIP().String()] = true
		if len(p.Payload) > 800 {
			bigPayloads++
		}
	}
	if len(srcs) < 10 {
		t.Errorf("udpflood from only %d sources; DDoS needs many", len(srcs))
	}
	if bigPayloads < len(pkts)/2 {
		t.Errorf("udpflood payloads too small: %d/%d large", bigPayloads, len(pkts))
	}
}

func TestDNSAmplificationLargeResponses(t *testing.T) {
	spec, _ := Get("F3")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackDNSAmp)
	if len(pkts) == 0 {
		t.Fatal("no dns amplification packets")
	}
	for _, p := range pkts {
		if p.UDP == nil || p.UDP.SrcPort != 53 {
			t.Fatal("amplification traffic must come from resolver port 53")
		}
		if len(p.Payload) < 1000 {
			t.Fatalf("amplified response only %d bytes", len(p.Payload))
		}
	}
}

func TestMiraiScansTelnet(t *testing.T) {
	spec, _ := Get("F4")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackMirai)
	telnet, cnc := 0, 0
	for _, p := range pkts {
		if p.TCP == nil {
			continue
		}
		switch {
		case p.TCP.DstPort == 23 || p.TCP.SrcPort == 23:
			telnet++
		case p.TCP.DstPort == 48101 || p.TCP.SrcPort == 48101:
			cnc++
		}
	}
	if telnet == 0 || cnc == 0 {
		t.Errorf("mirai needs both telnet scanning (%d) and C&C beacons (%d)", telnet, cnc)
	}
}

func TestToriiStaysQuietAndOddPorted(t *testing.T) {
	spec, _ := Get("F5")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackTorii)
	if len(pkts) == 0 {
		t.Fatal("no torii packets")
	}
	// All C&C ports must sit above every benign service port and below
	// Mirai's 48101 C&C region (the Fig. 10 asymmetry depends on this).
	for _, p := range pkts {
		if p.TCP == nil {
			t.Fatal("torii packet without TCP")
		}
		dp := p.TCP.DstPort
		if p.TCP.SrcPort > dp {
			dp = p.TCP.SrcPort // response direction; take the service side
		}
		_ = dp
	}
	dports := map[uint16]bool{}
	for _, p := range pkts {
		if p.TCP.HasFlag(netpkt.FlagSYN) && !p.TCP.HasFlag(netpkt.FlagACK) {
			dports[p.TCP.DstPort] = true
		}
	}
	for dp := range dports {
		if dp < 6000 || dp > 24000 {
			t.Errorf("torii port %d outside the (6000, 24000) design band", dp)
		}
	}
	if len(dports) < 3 {
		t.Errorf("torii rotated only %d ports", len(dports))
	}
	// Quiet: malicious packet share well below the flood datasets'.
	if ds.MaliciousFraction() > 0.2 {
		t.Errorf("torii share %.2f too loud", ds.MaliciousFraction())
	}
}

func TestARPSpoofGratuitousReplies(t *testing.T) {
	spec, _ := Get("P0")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackARPMitM)
	arpReplies := 0
	for _, p := range pkts {
		if p.ARP != nil && p.ARP.Op == 2 {
			arpReplies++
			if p.ARP.SenderHW == (netpkt.MAC{}) {
				t.Fatal("spoofed reply with empty MAC")
			}
		}
	}
	if arpReplies < 10 {
		t.Errorf("only %d spoofed ARP replies", arpReplies)
	}
}

func TestExfiltrationIsUploadHeavy(t *testing.T) {
	spec, _ := Get("F2")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackExfil)
	var up, down int
	for _, p := range pkts {
		if p.TCP == nil {
			continue
		}
		if p.TCP.DstPort == 8443 {
			up += len(p.Payload)
		} else {
			down += len(p.Payload)
		}
	}
	if up < 10*down+1000 {
		t.Errorf("exfiltration not upload-heavy: up=%d down=%d", up, down)
	}
}

func TestWebAttackCarriesInjectionPayloads(t *testing.T) {
	spec, _ := Get("F2")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackWebAttack)
	sawHTTP := false
	for _, p := range pkts {
		if p.HTTP != nil && p.HTTP.IsRequest {
			sawHTTP = true
			if len(p.HTTP.Path) < 10 {
				t.Errorf("web attack path suspiciously short: %q", p.HTTP.Path)
			}
		}
	}
	if !sawHTTP {
		t.Error("web attack produced no decodable HTTP requests")
	}
}

func TestDeauthFloodTargetsStations(t *testing.T) {
	spec, _ := Get("P2")
	ds := spec.Generate(0.3)
	pkts := attackPackets(ds, AttackDeauth)
	if len(pkts) < 20 {
		t.Fatalf("only %d deauth frames", len(pkts))
	}
	for _, p := range pkts {
		if p.Dot11 == nil || p.Dot11.Subtype != netpkt.Dot11Deauth {
			t.Fatal("deauth attack with non-deauth frame")
		}
	}
}

func TestEvilTwinUsesRogueBSSID(t *testing.T) {
	spec, _ := Get("P2")
	ds := spec.Generate(0.3)
	atk := attackPackets(ds, AttackEvilTwin)
	benignBSSIDs := map[netpkt.MAC]bool{}
	for i, p := range decodeAll(ds) {
		if ds.Attacks[i] == "" && p.Dot11 != nil {
			benignBSSIDs[p.Dot11.Addr3] = true
		}
	}
	for _, p := range atk {
		if p.Dot11.Subtype == netpkt.Dot11Beacon && benignBSSIDs[p.Dot11.Addr3] {
			t.Fatal("evil twin beacons must use a rogue BSSID")
		}
	}
}

func TestBenignTelemetryDecodesAsMQTT(t *testing.T) {
	spec, _ := Get("F0")
	ds := spec.Generate(0.3)
	mqtt := 0
	for i, p := range decodeAll(ds) {
		if ds.Attacks[i] == "" && p.MQTT != nil && p.MQTT.Type == netpkt.MQTTPublish {
			mqtt++
			if len(p.MQTT.Topic) == 0 {
				t.Error("benign PUBLISH without a topic")
			}
		}
	}
	if mqtt < 20 {
		t.Errorf("only %d benign MQTT PUBLISH packets decoded", mqtt)
	}
}

func TestBenignFirmwareChecksDecodeAsHTTP(t *testing.T) {
	spec, _ := Get("F0")
	ds := spec.Generate(0.5)
	reqs := 0
	for i, p := range decodeAll(ds) {
		if ds.Attacks[i] == "" && p.HTTP != nil && p.HTTP.IsRequest {
			reqs++
			if string(p.HTTP.Method) != "GET" {
				t.Errorf("benign firmware check method = %q", p.HTTP.Method)
			}
		}
	}
	if reqs == 0 {
		t.Error("no benign HTTP requests decoded")
	}
}
