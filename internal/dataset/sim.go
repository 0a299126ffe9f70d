package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"lumen/internal/netpkt"
)

// sim captures labelled packets for one dataset run. All randomness
// flows through one seeded source, so generation is deterministic.
type sim struct {
	rng *rand.Rand
	// out is the capture in generation order; its Devices map records
	// local endpoint -> kind for the device-classification task.
	out Labeled
	// ephemeral port allocator per host
	nextPort map[netip.Addr]uint16
}

func newSim(seed int64) *sim {
	return &sim{
		rng:      rand.New(rand.NewSource(seed)),
		out:      Labeled{Link: netpkt.LinkEthernet, Devices: map[string]string{}},
		nextPort: make(map[netip.Addr]uint16),
	}
}

// device is one simulated IoT endpoint.
type device struct {
	Name string
	Kind string // camera, plug, thermostat, sensor, hub, speaker
	IP   netip.Addr
	MAC  netpkt.MAC
}

// network describes the address plan of one dataset's capture site;
// varying it across datasets is part of why cross-dataset transfer
// degrades (different scales, rates and endpoints), as the paper observes.
type network struct {
	subnet  [3]byte // /24 prefix
	gateway device
	cloud   []netip.Addr // external service endpoints
	dns     netip.Addr
	devices []device
}

// buildNetwork creates nDevices of a per-dataset kind mix.
func (s *sim) buildNetwork(subnet [3]byte, kinds []string, nDevices int) *network {
	nw := &network{subnet: subnet}
	mk := func(host byte, name, kind string) device {
		return device{
			Name: name,
			Kind: kind,
			IP:   netip.AddrFrom4([4]byte{subnet[0], subnet[1], subnet[2], host}),
			MAC:  netpkt.MAC{0x02, subnet[2], 0, 0, 0, host},
		}
	}
	nw.gateway = mk(1, "gateway", "hub")
	s.out.Devices[nw.gateway.IP.String()] = nw.gateway.Kind
	nw.dns = netip.AddrFrom4([4]byte{8, 8, 8, 8})
	for i := 0; i < 3; i++ {
		nw.cloud = append(nw.cloud, netip.AddrFrom4([4]byte{52, 10, subnet[2], byte(10 + i)}))
	}
	for i := 0; i < nDevices; i++ {
		kind := kinds[i%len(kinds)]
		d := mk(byte(10+i), fmt.Sprintf("%s-%d", kind, i), kind)
		s.out.Devices[d.IP.String()] = kind
		nw.devices = append(nw.devices, d)
	}
	return nw
}

func (s *sim) ephemeralPort(ip netip.Addr) uint16 {
	p, ok := s.nextPort[ip]
	if !ok {
		p = 40000 + uint16(s.rng.Intn(8000))
	}
	p++
	if p < 32768 {
		p = 40000
	}
	s.nextPort[ip] = p
	return p
}

// onAdd, when set (by tests), sees each builder packet beside the record
// its serialization became.
var onAdd func(p *netpkt.Packet, r *Record)

// add serializes the builder packet into a capture record; the packet
// itself is not kept.
func (s *sim) add(p *netpkt.Packet, label int, attack string) {
	data, err := p.Serialize()
	if err != nil {
		panic(fmt.Sprintf("dataset: serialize: %v", err)) // generator bug, not input error
	}
	r := &Record{Ts: p.Ts, Data: data}
	if onAdd != nil {
		onAdd(p, r)
	}
	s.out.Packets = append(s.out.Packets, r)
	s.out.Labels = append(s.out.Labels, label)
	s.out.Attacks = append(s.out.Attacks, attack)
}

func ts(sec float64) time.Time { return time.Unix(0, int64(sec*1e9)).UTC() }

// payload returns len pseudorandom bytes.
func (s *sim) payload(n int) []byte {
	b := make([]byte, n)
	s.rng.Read(b)
	return b
}

func (s *sim) tcp(src, dst device, sport, dport uint16, flags uint8, t float64, payload []byte, ttl uint8, label int, attack string) {
	if ttl == 0 {
		ttl = 64
	}
	s.add(&netpkt.Packet{
		Ts:      ts(t),
		Eth:     &netpkt.Ethernet{Src: src.MAC, Dst: dst.MAC, EtherType: netpkt.EtherTypeIPv4},
		IPv4:    &netpkt.IPv4{TTL: ttl, Protocol: netpkt.ProtoTCP, Src: src.IP, Dst: dst.IP, ID: uint16(s.rng.Intn(65536))},
		TCP:     &netpkt.TCP{SrcPort: sport, DstPort: dport, Flags: flags, Window: 65535, Seq: uint32(s.rng.Intn(1 << 30))},
		Payload: payload,
	}, label, attack)
}

func (s *sim) udp(src, dst device, sport, dport uint16, t float64, payload []byte, label int, attack string) {
	s.add(&netpkt.Packet{
		Ts:      ts(t),
		Eth:     &netpkt.Ethernet{Src: src.MAC, Dst: dst.MAC, EtherType: netpkt.EtherTypeIPv4},
		IPv4:    &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoUDP, Src: src.IP, Dst: dst.IP, ID: uint16(s.rng.Intn(65536))},
		UDP:     &netpkt.UDP{SrcPort: sport, DstPort: dport},
		Payload: payload,
	}, label, attack)
}

// external wraps an off-subnet address as a pseudo-device for emission.
func external(ip netip.Addr) device {
	b := ip.As4()
	return device{Name: "ext", Kind: "ext", IP: ip, MAC: netpkt.MAC{0x02, 0xee, b[1], b[2], b[3], 1}}
}

// tcpSession emits a full TCP exchange: handshake, nReq request/response
// pairs of random payloads, FIN close. Returns the session end time.
func (s *sim) tcpSession(src, dst device, dport uint16, start float64, nReq, reqLen, respLen int, gap float64, label int, attack string) float64 {
	reqs := make([][]byte, nReq)
	resps := make([][]byte, nReq)
	for i := 0; i < nReq; i++ {
		reqs[i] = s.payload(reqLen)
		resps[i] = s.payload(respLen)
	}
	return s.tcpSessionApp(src, dst, dport, start, reqs, resps, gap, label, attack)
}

// tcpSessionApp emits a full TCP exchange carrying the given application
// payloads (so protocol-aware decoders see real HTTP/MQTT messages).
func (s *sim) tcpSessionApp(src, dst device, dport uint16, start float64, reqs, resps [][]byte, gap float64, label int, attack string) float64 {
	sport := s.ephemeralPort(src.IP)
	t := start
	jit := func() float64 { return s.rng.Float64() * 0.004 }
	s.tcp(src, dst, sport, dport, netpkt.FlagSYN, t, nil, 0, label, attack)
	t += 0.002 + jit()
	s.tcp(dst, src, dport, sport, netpkt.FlagSYN|netpkt.FlagACK, t, nil, 0, label, attack)
	t += 0.001 + jit()
	s.tcp(src, dst, sport, dport, netpkt.FlagACK, t, nil, 0, label, attack)
	for i := range reqs {
		t += gap * (0.8 + 0.4*s.rng.Float64())
		s.tcp(src, dst, sport, dport, netpkt.FlagACK|netpkt.FlagPSH, t, reqs[i], 0, label, attack)
		t += 0.003 + jit()
		var resp []byte
		if i < len(resps) {
			resp = resps[i]
		}
		s.tcp(dst, src, dport, sport, netpkt.FlagACK|netpkt.FlagPSH, t, resp, 0, label, attack)
	}
	t += 0.005 + jit()
	s.tcp(src, dst, sport, dport, netpkt.FlagFIN|netpkt.FlagACK, t, nil, 0, label, attack)
	t += 0.002
	s.tcp(dst, src, dport, sport, netpkt.FlagFIN|netpkt.FlagACK, t, nil, 0, label, attack)
	t += 0.001
	s.tcp(src, dst, sport, dport, netpkt.FlagACK, t, nil, 0, label, attack)
	return t
}

// dnsLookup emits a query/response pair.
func (s *sim) dnsLookup(src device, dns netip.Addr, name string, start float64) {
	sport := s.ephemeralPort(src.IP)
	id := uint16(s.rng.Intn(65536))
	srv := external(dns)
	s.udp(src, srv, sport, 53, start, netpkt.EncodeDNSQuery(id, name, false), 0, "")
	s.udp(srv, src, 53, sport, start+0.01+s.rng.Float64()*0.02, netpkt.EncodeDNSQuery(id, name, true), 0, "")
}

// benignDevice simulates one device's background behaviour over [0, dur).
func (s *sim) benignDevice(nw *network, d device, dur float64) {
	switch d.Kind {
	case "camera":
		// Streaming bursts to a cloud endpoint plus keepalives.
		cloud := external(nw.cloud[0])
		for t := s.rng.Float64() * 5; t < dur; t += 5 + s.rng.Float64()*3 {
			s.dnsLookup(d, nw.dns, "stream."+d.Name+".cam.example", t-0.05)
			sport := s.ephemeralPort(d.IP)
			n := 15 + s.rng.Intn(15)
			tt := t
			for i := 0; i < n; i++ {
				s.udp(d, cloud, sport, 3478, tt, s.payload(500+s.rng.Intn(700)), 0, "")
				tt += 0.03 + s.rng.Float64()*0.02
			}
		}
	case "plug", "sensor", "thermostat":
		// Periodic telemetry to the hub: real MQTT PUBLISH payloads.
		period := 3 + s.rng.Float64()*3
		topic := "home/" + d.Name + "/telemetry"
		for t := s.rng.Float64() * period; t < dur; t += period {
			s.tcpSessionApp(d, nw.gateway, 1883, t,
				[][]byte{netpkt.EncodeMQTTPublish(topic, 20+s.rng.Intn(40))},
				[][]byte{{byte(netpkt.MQTTPubAck) << 4, 2, 0, byte(s.rng.Intn(256))}},
				0.01, 0, "")
		}
		if d.Kind == "sensor" {
			// Sensors also speak CoAP (UDP 5683) to the hub, so an
			// "unknown service" alone is not a malicious tell.
			for t := 1 + s.rng.Float64()*8; t < dur; t += 9 + s.rng.Float64()*6 {
				sport := s.ephemeralPort(d.IP)
				s.udp(d, nw.gateway, sport, 5683, t, s.payload(30+s.rng.Intn(30)), 0, "")
				s.udp(nw.gateway, d, 5683, sport, t+0.01, s.payload(20), 0, "")
			}
		}
	case "speaker", "hub":
		// Cloud HTTPS chatter and DNS.
		cloud := external(nw.cloud[1%len(nw.cloud)])
		for t := 1 + s.rng.Float64()*6; t < dur; t += 8 + s.rng.Float64()*6 {
			s.dnsLookup(d, nw.dns, "api."+d.Kind+".example.com", t-0.08)
			s.tcpSession(d, cloud, 443, t, 2+s.rng.Intn(3), 200+s.rng.Intn(300), 400+s.rng.Intn(800), 0.05, 0, "")
		}
	}
	// Everyone does occasional NTP and an HTTP firmware check.
	ntp := external(netip.AddrFrom4([4]byte{129, 6, 15, 28}))
	for t := 2 + s.rng.Float64()*10; t < dur; t += 30 + s.rng.Float64()*20 {
		sport := s.ephemeralPort(d.IP)
		s.udp(d, ntp, sport, 123, t, s.payload(48), 0, "")
		s.udp(ntp, d, 123, sport, t+0.02, s.payload(48), 0, "")
	}
	fw := external(nw.cloud[2%len(nw.cloud)])
	for t := 5 + s.rng.Float64()*25; t < dur; t += 35 + s.rng.Float64()*25 {
		host := "fw." + d.Kind + ".example.com"
		s.dnsLookup(d, nw.dns, host, t-0.06)
		s.tcpSessionApp(d, fw, 80, t,
			[][]byte{netpkt.EncodeHTTPRequest("GET", "/fw/"+d.Name+"/check", host, 0)},
			[][]byte{netpkt.EncodeHTTPResponse(200, 300+s.rng.Intn(500))},
			0.03, 0, "")
	}
}

// finish names the capture and sorts it by time.
func (s *sim) finish(name string, g Granularity) *Labeled {
	l := s.out
	l.Name, l.Granularity = name, g
	l.sortByTime()
	return &l
}

// scaleDur converts the base duration by the scale factor, keeping at
// least a few seconds so sessions complete.
func scaleDur(base, scale float64) float64 { return math.Max(base*scale, 5) }
