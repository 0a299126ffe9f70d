package dataset

import (
	"net/netip"

	"lumen/internal/netpkt"
)

// registry defines the 15 stand-in datasets of Table 3: F0–F9 at
// connection granularity and P0–P4 at packet granularity (the paper's
// Table 3 names P0–P2; the Kitsune corpus contributes multiple attack
// captures, expanded here as P1/P3/P4 to reach the "five packet-level
// datasets" of §5.1). Every dataset differs in address plan, device mix,
// rates and attack set, so cross-dataset transfer degrades the way it
// does across the real corpora.
func registry() []Spec {
	return []Spec{
		{
			ID: "F0", Desc: "CICIDS 2017 Tuesday (brute force)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackBruteSSH, AttackBruteTelnet},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF0)
				dur := scaleDur(60, scale)
				nw := s.buildNetwork([3]byte{192, 168, 10}, []string{"plug", "thermostat", "hub", "speaker"}, 12)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{172, 16, 0, 1}))
				s.bruteForce(atk, nw.devices[2], 22, dur*0.2, dur*0.25, 1.6, AttackBruteSSH)
				s.bruteForce(atk, nw.devices[5], 23, dur*0.55, dur*0.25, 2, AttackBruteTelnet)
				return s.finish("F0", ConnectionG)
			},
		},
		{
			ID: "F1", Desc: "CICIDS 2017 Wednesday (DoS)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackSYNFlood, AttackHTTPFlood},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF1)
				dur := scaleDur(60, scale)
				nw := s.buildNetwork([3]byte{192, 168, 10}, []string{"camera", "plug", "hub", "sensor"}, 12)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{172, 16, 0, 10}))
				s.synFlood(atk, nw.devices[2], 80, dur*0.15, dur*0.22, 30)
				s.httpFlood(atk, nw.devices[2], dur*0.55, dur*0.22, 3)
				return s.finish("F1", ConnectionG)
			},
		},
		{
			ID: "F2", Desc: "CICIDS 2017 Thursday (web attack, infiltration)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackWebAttack, AttackExfil},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF2)
				dur := scaleDur(60, scale)
				nw := s.buildNetwork([3]byte{192, 168, 10}, []string{"hub", "speaker", "plug", "camera"}, 12)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{172, 16, 0, 20}))
				s.webAttack(atk, nw.devices[0], dur*0.2, int(20*scale)+5)
				for i := 0; i < 4; i++ {
					s.exfiltration(nw.devices[3], dur*(0.5+0.1*float64(i)), int(60*scale)+10)
				}
				return s.finish("F2", ConnectionG)
			},
		},
		{
			ID: "F3", Desc: "CICIDS 2019 01-11 (DDoS)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackUDPFlood, AttackDNSAmp},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF3)
				dur := scaleDur(50, scale)
				nw := s.buildNetwork([3]byte{10, 50, 0}, []string{"hub", "camera", "plug", "plug"}, 14)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				s.udpFlood(nw.devices[0], dur*0.2, dur*0.22, 45, 24)
				s.dnsAmplification(nw.devices[0], dur*0.6, dur*0.22, 30)
				return s.finish("F3", ConnectionG)
			},
		},
		{
			ID: "F4", Desc: "CTU IoT 1-1 (Mirai)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackMirai},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF4)
				dur := scaleDur(70, scale)
				nw := s.buildNetwork([3]byte{192, 168, 100}, []string{"camera", "plug", "sensor"}, 9)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				cnc := netip.AddrFrom4([4]byte{111, 22, 33, 44})
				s.miraiBot(nw.devices[1], cnc, nw, dur*0.15, dur*0.7)
				return s.finish("F4", ConnectionG)
			},
		},
		{
			ID: "F5", Desc: "CTU IoT 20-1 (Torii, stealthy C&C)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackTorii},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF5)
				dur := scaleDur(90, scale)
				nw := s.buildNetwork([3]byte{192, 168, 100}, []string{"plug", "sensor", "thermostat"}, 9)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				cnc := netip.AddrFrom4([4]byte{66, 85, 157, 90})
				s.toriiBot(nw.devices[0], cnc, dur*0.1, dur*0.85)
				s.toriiBot(nw.devices[3], cnc, dur*0.15, dur*0.8)
				return s.finish("F5", ConnectionG)
			},
		},
		{
			ID: "F6", Desc: "CTU IoT 3-1 (scanning)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackPortScan, AttackOSScan},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF6)
				dur := scaleDur(60, scale)
				nw := s.buildNetwork([3]byte{192, 168, 2}, []string{"hub", "plug", "camera"}, 10)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{185, 10, 20, 30}))
				s.portScan(atk, nw.devices[0], dur*0.2, int(150*scale)+20, 0.05)
				s.osScan(atk, nw.devices[4], dur*0.6, int(80*scale)+10)
				return s.finish("F6", ConnectionG)
			},
		},
		{
			ID: "F7", Desc: "CTU IoT 7-1 (telnet brute force + Mirai)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackBruteTelnet, AttackMirai},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF7)
				dur := scaleDur(65, scale)
				nw := s.buildNetwork([3]byte{192, 168, 100}, []string{"camera", "sensor", "plug", "hub"}, 12)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{45, 95, 11, 2}))
				s.bruteForce(atk, nw.devices[0], 23, dur*0.15, dur*0.25, 2.2, AttackBruteTelnet)
				cnc := netip.AddrFrom4([4]byte{111, 22, 99, 7})
				s.miraiBot(nw.devices[0], cnc, nw, dur*0.55, dur*0.35)
				return s.finish("F7", ConnectionG)
			},
		},
		{
			ID: "F8", Desc: "CTU IoT 34-1 (Mirai + UDP DDoS)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackMirai, AttackUDPFlood},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF8)
				dur := scaleDur(60, scale)
				nw := s.buildNetwork([3]byte{192, 168, 100}, []string{"plug", "camera", "sensor"}, 9)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				cnc := netip.AddrFrom4([4]byte{111, 77, 33, 5})
				s.miraiBot(nw.devices[2], cnc, nw, dur*0.1, dur*0.4)
				s.udpFlood(nw.devices[4], dur*0.6, dur*0.22, 40, 16)
				return s.finish("F8", ConnectionG)
			},
		},
		{
			ID: "F9", Desc: "CTU IoT 8-1 (Hajime-style scanning)", Granularity: ConnectionG,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackPortScan, AttackBruteTelnet},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xF9)
				dur := scaleDur(60, scale)
				nw := s.buildNetwork([3]byte{192, 168, 3}, []string{"sensor", "plug", "hub", "thermostat"}, 12)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{91, 200, 1, 9}))
				s.portScan(atk, nw.devices[1], dur*0.2, int(120*scale)+20, 0.08)
				s.bruteForce(atk, nw.devices[1], 23, dur*0.6, dur*0.22, 1.6, AttackBruteTelnet)
				return s.finish("F9", ConnectionG)
			},
		},
		{
			ID: "P0", Desc: "IEEE IoT network intrusion dataset", Granularity: Packet,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackPortScan, AttackSYNFlood, AttackARPMitM, AttackOSScan},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xB0)
				dur := scaleDur(55, scale)
				nw := s.buildNetwork([3]byte{192, 168, 0}, []string{"camera", "speaker", "plug", "hub"}, 12)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{192, 168, 0, 250}))
				s.portScan(atk, nw.devices[0], dur*0.1, int(100*scale)+20, 0.04)
				s.synFlood(atk, nw.devices[1], 80, dur*0.35, dur*0.15, 28)
				s.arpSpoof(atk, nw.devices[2], nw.gateway, dur*0.6, dur*0.2, 5)
				s.osScan(atk, nw.devices[3], dur*0.85, int(60*scale)+10)
				return s.finish("P0", Packet)
			},
		},
		{
			ID: "P1", Desc: "Kitsune capture: Mirai on a camera network", Granularity: Packet,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackMirai},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xB1)
				dur := scaleDur(70, scale)
				nw := s.buildNetwork([3]byte{192, 168, 20}, []string{"camera", "camera", "camera", "hub"}, 10)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				cnc := netip.AddrFrom4([4]byte{101, 99, 88, 77})
				s.miraiBot(nw.devices[0], cnc, nw, dur*0.25, dur*0.6)
				return s.finish("P1", Packet)
			},
		},
		{
			ID: "P2", Desc: "AWID3 (802.11 wireless attacks)", Granularity: Packet,
			Link:    netpkt.LinkDot11,
			Attacks: []string{AttackDeauth, AttackEvilTwin},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xB2)
				dur := scaleDur(45, scale)
				ap := netpkt.MAC{0x0a, 0x11, 0x22, 0x33, 0x44, 0x55}
				var stations []netpkt.MAC
				for i := byte(0); i < 6; i++ {
					stations = append(stations, netpkt.MAC{0x02, 0x99, 0, 0, 0, i + 1})
				}
				s.wifiBenign(ap, stations, dur)
				s.deauthFlood(ap, stations, dur*0.25, dur*0.15, 25)
				rogue := netpkt.MAC{0x0a, 0xde, 0xad, 0xbe, 0xef, 0x01}
				s.evilTwin(rogue, stations, dur*0.6, dur*0.25)
				return s.finish("P2", Packet)
			},
		},
		{
			ID: "P3", Desc: "Kitsune capture: SYN DoS", Granularity: Packet,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackSYNFlood},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xB3)
				dur := scaleDur(50, scale)
				nw := s.buildNetwork([3]byte{192, 168, 20}, []string{"camera", "camera", "hub"}, 9)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{172, 30, 1, 2}))
				s.synFlood(atk, nw.devices[2], 554, dur*0.3, dur*0.3, 35)
				return s.finish("P3", Packet)
			},
		},
		{
			ID: "P4", Desc: "Kitsune capture: ARP MitM", Granularity: Packet,
			Link:    netpkt.LinkEthernet,
			Attacks: []string{AttackARPMitM},
			Generate: func(scale float64) *Labeled {
				s := newSim(0xB4)
				dur := scaleDur(55, scale)
				nw := s.buildNetwork([3]byte{192, 168, 20}, []string{"camera", "speaker", "hub"}, 9)
				for _, d := range nw.devices {
					s.benignDevice(nw, d, dur)
				}
				atk := external(netip.AddrFrom4([4]byte{192, 168, 20, 240}))
				s.arpSpoof(atk, nw.devices[0], nw.gateway, dur*0.3, dur*0.45, 8)
				return s.finish("P4", Packet)
			},
		},
	}
}
