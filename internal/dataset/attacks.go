package dataset

import (
	"fmt"
	"net/netip"

	"lumen/internal/netpkt"
)

// Attack injectors. Each emits labelled malicious traffic over a time
// window, with parameters chosen to mirror the signatures the ported
// algorithms key on (rate, flag mix, port entropy, payload sizes).

// synFlood: one attacker hammers victim:dport with SYNs from random
// source ports; the victim answers some with RST (half-open the rest).
func (s *sim) synFlood(attacker, victim device, dport uint16, start, dur, rate float64) {
	for t := start; t < start+dur; t += 1 / rate * (0.7 + 0.6*s.rng.Float64()) {
		sport := uint16(1024 + s.rng.Intn(60000))
		s.tcp(attacker, victim, sport, dport, netpkt.FlagSYN, t, nil, 0, 1, AttackSYNFlood)
		if s.rng.Float64() < 0.3 {
			s.tcp(victim, attacker, dport, sport, netpkt.FlagRST|netpkt.FlagACK, t+0.001, nil, 0, 1, AttackSYNFlood)
		}
	}
}

// httpFlood: rapid short HTTP request sessions with randomized paths
// (Hulk-style DoS defeats caches with unique URLs).
func (s *sim) httpFlood(attacker, victim device, start, dur, rate float64) {
	for t := start; t < start+dur; t += 1 / rate * (0.8 + 0.4*s.rng.Float64()) {
		path := fmt.Sprintf("/?r=%d", s.rng.Intn(1<<30))
		s.tcpSessionApp(attacker, victim, 80, t,
			[][]byte{netpkt.EncodeHTTPRequest("GET", path, victim.IP.String(), 0)},
			[][]byte{netpkt.EncodeHTTPResponse(200, 40)},
			0.002, 1, AttackHTTPFlood)
	}
}

// udpFlood: many spoofed sources blast the victim with large UDP
// datagrams (DDoS).
func (s *sim) udpFlood(victim device, start, dur, rate float64, nSources int) {
	srcs := make([]device, nSources)
	for i := range srcs {
		srcs[i] = external(netip.AddrFrom4([4]byte{
			byte(11 + s.rng.Intn(200)), byte(s.rng.Intn(256)), byte(s.rng.Intn(256)), byte(1 + s.rng.Intn(254)),
		}))
	}
	for t := start; t < start+dur; t += 1 / rate {
		src := srcs[s.rng.Intn(len(srcs))]
		s.udp(src, victim, uint16(1024+s.rng.Intn(60000)), uint16(1+s.rng.Intn(65535)), t, s.payload(900+s.rng.Intn(500)), 1, AttackUDPFlood)
	}
}

// dnsAmplification: small spoofed queries cause large responses at the
// victim.
func (s *sim) dnsAmplification(victim device, start, dur, rate float64) {
	resolver := external(netip.AddrFrom4([4]byte{9, 9, 9, 9}))
	for t := start; t < start+dur; t += 1 / rate {
		sport := uint16(1024 + s.rng.Intn(60000))
		// Only the reflected large responses arrive at the victim's site.
		s.udp(resolver, victim, 53, sport, t, s.payload(1200+s.rng.Intn(200)), 1, AttackDNSAmp)
	}
}

// portScan: SYN probes across many destination ports; closed ports RST.
func (s *sim) portScan(attacker, victim device, start float64, nPorts int, gap float64) {
	t := start
	for i := 0; i < nPorts; i++ {
		dport := uint16(1 + s.rng.Intn(10000))
		sport := s.ephemeralPort(attacker.IP)
		s.tcp(attacker, victim, sport, dport, netpkt.FlagSYN, t, nil, 0, 1, AttackPortScan)
		s.tcp(victim, attacker, dport, sport, netpkt.FlagRST|netpkt.FlagACK, t+0.001, nil, 0, 1, AttackPortScan)
		t += gap * (0.5 + s.rng.Float64())
	}
}

// osScan: malformed-flag probes (NULL/FIN/Xmas) with odd TTLs.
func (s *sim) osScan(attacker, victim device, start float64, n int) {
	flagSets := []uint8{0, netpkt.FlagFIN, netpkt.FlagFIN | netpkt.FlagPSH | netpkt.FlagURG, netpkt.FlagSYN | netpkt.FlagFIN}
	t := start
	for i := 0; i < n; i++ {
		s.tcp(attacker, victim, s.ephemeralPort(attacker.IP), uint16(1+s.rng.Intn(1024)),
			flagSets[s.rng.Intn(len(flagSets))], t, nil, uint8(30+s.rng.Intn(200)), 1, AttackOSScan)
		t += 0.05 + s.rng.Float64()*0.1
	}
}

// bruteForce: repeated short login sessions against dport (22 = SSH,
// 23 = Telnet/Mirai-style).
func (s *sim) bruteForce(attacker, victim device, dport uint16, start, dur, rate float64, attack string) {
	for t := start; t < start+dur; t += 1 / rate * (0.7 + 0.6*s.rng.Float64()) {
		s.tcpSession(attacker, victim, dport, t, 2, 30+s.rng.Intn(30), 40, 0.02, 1, attack)
	}
}

// miraiBot: an infected device beacons to C&C and scans the neighbourhood
// for telnet — the loud botnet signature of the CTU Mirai scenarios.
func (s *sim) miraiBot(bot device, cnc netip.Addr, nw *network, start, dur float64) {
	cncDev := external(cnc)
	for t := start; t < start+dur; t += 4 + s.rng.Float64()*2 {
		s.tcpSession(bot, cncDev, 48101, t, 1, 20+s.rng.Intn(20), 30, 0.01, 1, AttackMirai)
	}
	// Telnet scanning sweep.
	for t := start + 1; t < start+dur; t += 0.4 + s.rng.Float64()*0.4 {
		tgt := external(netip.AddrFrom4([4]byte{nw.subnet[0], nw.subnet[1], nw.subnet[2], byte(2 + s.rng.Intn(250))}))
		sport := s.ephemeralPort(bot.IP)
		s.tcp(bot, tgt, sport, 23, netpkt.FlagSYN, t, nil, 0, 1, AttackMirai)
		if s.rng.Float64() < 0.2 {
			s.tcp(tgt, bot, 23, sport, netpkt.FlagRST|netpkt.FlagACK, t+0.002, nil, 0, 1, AttackMirai)
		}
	}
}

// toriiBot: the stealthy botnet of CTU scenario 20-1. Low-rate, highly
// periodic beacons on an uncommon high port, upload-skewed, torn down
// with an RST instead of a clean close. The session *shape* is generic
// "bad" (odd port, abrupt termination, asymmetric bytes) — properties
// loud attacks also exhibit — but the rate is far too low for models
// keyed on volume to notice. That is the mechanism behind the paper's
// Obs. 3 asymmetry: nothing trained elsewhere generalizes to F5, while a
// model trained on F5 still flags loud attacks.
func (s *sim) toriiBot(bot device, cnc netip.Addr, start, dur float64) {
	cncDev := external(cnc)
	// Torii rotates its C&C among many uncommon high ports; a model
	// trained on it therefore learns "odd high destination port + odd
	// session shape", a rule that transfers to scans, floods and other
	// botnets' C&C — while its own low rate keeps it invisible to models
	// trained on loud attacks.
	ports := []uint16{6667, 7547, 9527, 12361, 16661, 21832}
	const period = 7.0 // strict periodicity
	for t := start; t < start+dur; t += period + s.rng.Float64()*0.05 {
		dport := ports[s.rng.Intn(len(ports))]
		sport := s.ephemeralPort(bot.IP)
		tt := t
		s.tcp(bot, cncDev, sport, dport, netpkt.FlagSYN, tt, nil, 0, 1, AttackTorii)
		tt += 0.002 + s.rng.Float64()*0.004
		s.tcp(cncDev, bot, dport, sport, netpkt.FlagSYN|netpkt.FlagACK, tt, nil, 0, 1, AttackTorii)
		tt += 0.001 + s.rng.Float64()*0.004
		s.tcp(bot, cncDev, sport, dport, netpkt.FlagACK, tt, nil, 0, 1, AttackTorii)
		// Telemetry-sized report and acknowledgment: the session shape
		// blends in with benign MQTT chatter; only the port is off.
		for i := 0; i < 1+s.rng.Intn(2); i++ {
			tt += 0.01 + s.rng.Float64()*0.01
			s.tcp(bot, cncDev, sport, dport, netpkt.FlagACK|netpkt.FlagPSH, tt, s.payload(40+s.rng.Intn(60)), 0, 1, AttackTorii)
			tt += 0.003 + s.rng.Float64()*0.004
			s.tcp(cncDev, bot, dport, sport, netpkt.FlagACK|netpkt.FlagPSH, tt, s.payload(20), 0, 1, AttackTorii)
		}
		tt += 0.005
		if s.rng.Float64() < 0.6 {
			// Abrupt teardown from the bot.
			s.tcp(bot, cncDev, sport, dport, netpkt.FlagRST, tt, nil, 0, 1, AttackTorii)
		} else {
			s.tcp(bot, cncDev, sport, dport, netpkt.FlagFIN|netpkt.FlagACK, tt, nil, 0, 1, AttackTorii)
			tt += 0.002
			s.tcp(cncDev, bot, dport, sport, netpkt.FlagFIN|netpkt.FlagACK, tt, nil, 0, 1, AttackTorii)
			tt += 0.001
			s.tcp(bot, cncDev, sport, dport, netpkt.FlagACK, tt, nil, 0, 1, AttackTorii)
		}
	}
}

// arpSpoof: gratuitous ARP replies poisoning victim's view of the
// gateway (MitM).
func (s *sim) arpSpoof(attacker, victim, gateway device, start, dur, rate float64) {
	for t := start; t < start+dur; t += 1 / rate {
		s.add(&netpkt.Packet{
			Ts:  ts(t),
			Eth: &netpkt.Ethernet{Src: attacker.MAC, Dst: victim.MAC, EtherType: netpkt.EtherTypeARP},
			ARP: &netpkt.ARP{
				Op:       2,
				SenderHW: attacker.MAC, SenderIP: gateway.IP,
				TargetHW: victim.MAC, TargetIP: victim.IP,
			},
		}, 1, AttackARPMitM)
		// Relayed (now-intercepted) victim traffic with attacker TTL decrement.
		if s.rng.Float64() < 0.5 {
			s.tcp(victim, gateway, s.ephemeralPort(victim.IP), 443, netpkt.FlagACK|netpkt.FlagPSH, t+0.05, s.payload(80), 63, 1, AttackARPMitM)
		}
	}
}

// exfiltration: a compromised device pushes a large upload to an unusual
// external host.
func (s *sim) exfiltration(bot device, start float64, nChunks int) {
	sink := external(netip.AddrFrom4([4]byte{185, 220, 100, 42}))
	sport := s.ephemeralPort(bot.IP)
	t := start
	s.tcp(bot, sink, sport, 8443, netpkt.FlagSYN, t, nil, 0, 1, AttackExfil)
	t += 0.02
	s.tcp(sink, bot, 8443, sport, netpkt.FlagSYN|netpkt.FlagACK, t, nil, 0, 1, AttackExfil)
	t += 0.01
	for i := 0; i < nChunks; i++ {
		s.tcp(bot, sink, sport, 8443, netpkt.FlagACK|netpkt.FlagPSH, t, s.payload(1200+s.rng.Intn(200)), 0, 1, AttackExfil)
		t += 0.01 + s.rng.Float64()*0.01
	}
	s.tcp(bot, sink, sport, 8443, netpkt.FlagFIN|netpkt.FlagACK, t, nil, 0, 1, AttackExfil)
}

// webAttack: SQLi/XSS-style long suspicious HTTP requests against the
// hub's admin interface.
func (s *sim) webAttack(attacker, victim device, start float64, n int) {
	payloads := []string{
		"/login?user=admin'%20OR%20'1'='1",
		"/search?q=<script>document.location='http://evil'</script>",
		"/admin.php?cmd=;cat%20/etc/passwd",
	}
	t := start
	for i := 0; i < n; i++ {
		path := payloads[s.rng.Intn(len(payloads))] + fmt.Sprintf("&pad=%d", s.rng.Intn(1<<20))
		// Padded long request bodies mimic injection fuzzing.
		s.tcpSessionApp(attacker, victim, 80, t,
			[][]byte{netpkt.EncodeHTTPRequest("POST", path, victim.IP.String(), 400+s.rng.Intn(400))},
			[][]byte{netpkt.EncodeHTTPResponse(500, 120)},
			0.01, 1, AttackWebAttack)
		t += 0.5 + s.rng.Float64()
	}
}

// --- 802.11 attacks (AWID3 stand-in, no IP layer) ---

// dot11 emits an 802.11 frame.
func (s *sim) dot11(sub netpkt.Dot11Subtype, src, dst, bssid netpkt.MAC, t float64, payload []byte, label int, attack string) {
	s.out.Link = netpkt.LinkDot11
	s.add(&netpkt.Packet{
		Ts: ts(t),
		Dot11: &netpkt.Dot11{
			Subtype: sub, Addr1: dst, Addr2: src, Addr3: bssid,
			Seq: uint16(s.rng.Intn(4096)), Duration: uint16(s.rng.Intn(500)),
		},
		Payload: payload,
	}, label, attack)
}

// wifiBenign: AP beacons plus station data frames.
func (s *sim) wifiBenign(ap netpkt.MAC, stations []netpkt.MAC, dur float64) {
	bcast := netpkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for t := 0.0; t < dur; t += 0.1024 { // standard beacon interval
		s.dot11(netpkt.Dot11Beacon, ap, bcast, ap, t, s.payload(60), 0, "")
	}
	for _, st := range stations {
		for t := s.rng.Float64(); t < dur; t += 0.05 + s.rng.Float64()*0.3 {
			s.dot11(netpkt.Dot11Data, st, ap, ap, t, s.payload(100+s.rng.Intn(900)), 0, "")
			if s.rng.Float64() < 0.6 {
				s.dot11(netpkt.Dot11Data, ap, st, ap, t+0.002, s.payload(100+s.rng.Intn(1200)), 0, "")
			}
		}
	}
}

// deauthFlood: spoofed deauthentication frames knock stations off.
func (s *sim) deauthFlood(ap netpkt.MAC, stations []netpkt.MAC, start, dur, rate float64) {
	for t := start; t < start+dur; t += 1 / rate {
		st := stations[s.rng.Intn(len(stations))]
		s.dot11(netpkt.Dot11Deauth, ap, st, ap, t, []byte{0x07, 0x00}, 1, AttackDeauth)
	}
}

// evilTwin: a rogue AP beacons the same SSID from a different BSSID and
// lures association attempts.
func (s *sim) evilTwin(rogue netpkt.MAC, stations []netpkt.MAC, start, dur float64) {
	bcast := netpkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for t := start; t < start+dur; t += 0.1024 {
		s.dot11(netpkt.Dot11Beacon, rogue, bcast, rogue, t, s.payload(60), 1, AttackEvilTwin)
	}
	for _, st := range stations {
		if s.rng.Float64() < 0.5 {
			t := start + s.rng.Float64()*dur
			s.dot11(netpkt.Dot11ProbeRequest, st, bcast, rogue, t, s.payload(30), 1, AttackEvilTwin)
			s.dot11(netpkt.Dot11Auth, st, rogue, rogue, t+0.01, s.payload(10), 1, AttackEvilTwin)
			s.dot11(netpkt.Dot11AssocReq, st, rogue, rogue, t+0.02, s.payload(40), 1, AttackEvilTwin)
		}
	}
}
