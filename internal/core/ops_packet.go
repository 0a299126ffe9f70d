package core

import (
	"fmt"
	"slices"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/features"
	"lumen/internal/netpkt"
)

func init() {
	register("field_extract", "extract per-packet header fields into a frame (single pass, all requested fields at once)",
		opSig{in: []Kind{KindPackets}, out: KindFrame},
		opTraits{class: classRowLocal, ordered: fieldsOrdered, decode: fieldsDecode, cacheable: true}, opFieldExtract)
	register("nprint", "render packets to the nprint bit-level representation (variants: all, tcp_udp_ipv4, tcp_udp_ipv4_payload, tcp_icmp_ipv4)",
		opSig{in: []Kind{KindPackets}, out: KindFrame},
		opTraits{class: classRowLocal, decode: headers, cacheable: true}, opNPrint)
	register("kitsune_features", "damped incremental statistics per packet over src, channel and socket groupings (Kitsune/AfterImage)",
		opSig{in: []Kind{KindPackets}, out: KindFrame},
		opTraits{class: classRowLocal, ordered: always, decode: headers, cacheable: true}, opKitsuneFeatures)
	register("dot11_features", "802.11 frame features: subtype mix, retry, duration, per-transmitter rates",
		opSig{in: []Kind{KindPackets}, out: KindFrame},
		opTraits{class: classRowLocal, ordered: always, decode: headers, cacheable: true}, opDot11Features)
}

// fieldGroup is the fields that share one decode need and column type.
type fieldGroup struct {
	need  netpkt.DecodeHint
	str   bool // string-valued columns
	names []string
}

// packetFieldGroups is the catalogue of per-packet fields field_extract
// knows, grouped by how deep filling a field's column looks into the
// packet. It is the one per-field table: the op's known-field check, its
// column types and its decode trait all read the index built from it.
// All requested fields are produced in one pass over the packets (the
// shared-extraction optimization the paper highlights for size+time).
var packetFieldGroups = []fieldGroup{
	// Record metadata: needs no decoding at all.
	{names: []string{"ts", "iat", "len"}},
	{need: netpkt.DecodeHint{Headers: true}, names: []string{
		"payload_len", "ttl", "ip_id", "ip_tos", "proto",
		"src_port", "dst_port", "tcp_flags", "tcp_syn", "tcp_ack", "tcp_fin",
		"tcp_rst", "tcp_psh", "tcp_urg", "tcp_window", "udp_len", "icmp_type",
		"icmp_code", "is_arp", "is_tcp", "is_udp", "is_icmp"}},
	{need: netpkt.DecodeHint{Headers: true, Apps: netpkt.AppDNS}, names: []string{"dns_qr", "dns_qd"}},
	{need: netpkt.DecodeHint{Headers: true, Apps: netpkt.AppHTTP}, names: []string{
		"is_http", "http_is_req", "http_status", "http_path_len", "http_body_len"}},
	{need: netpkt.DecodeHint{Headers: true, Apps: netpkt.AppMQTT}, names: []string{
		"is_mqtt", "mqtt_type", "mqtt_qos", "mqtt_topic_len"}},
	{need: netpkt.DecodeHint{Headers: true}, str: true, names: []string{
		"src_ip", "dst_ip", "src_mac", "dst_mac"}},
}

// packetFieldIndex resolves a field name to its group.
var packetFieldIndex = func() map[string]fieldGroup {
	index := map[string]fieldGroup{}
	for _, g := range packetFieldGroups {
		for _, f := range g.names {
			index[f] = g
		}
	}
	return index
}()

// fieldsDecode is field_extract's decode trait: the union of what its
// requested fields need. Unknown fields add nothing; the op rejects them.
func fieldsDecode(p params) netpkt.DecodeHint {
	var hint netpkt.DecodeHint
	for _, f := range p.strList("fields") {
		hint = hint.Union(packetFieldIndex[f].need)
	}
	return hint
}

// fieldsOrdered is field_extract's ordered trait: only iat (the previous
// packet's timestamp) folds across chunks.
func fieldsOrdered(p params) bool {
	return slices.Contains(p.strList("fields"), "iat")
}

// feCarry is field_extract's cross-chunk fold state: the previous
// packet's timestamp, so iat stays exact across a chunk boundary.
type feCarry struct {
	prevTs float64
	seen   bool
}

// pktTime converts a capture timestamp to the float seconds every packet
// op works in.
func pktTime(ts time.Time) float64 { return float64(ts.UnixNano()) / 1e9 }

func opFieldExtract(ctx *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	fields := p.strList("fields")
	if len(fields) == 0 {
		return nil, fmt.Errorf("field_extract: no fields requested")
	}
	n := pk.Len()
	numeric := map[string][]float64{}
	strs := map[string][]string{}
	for _, f := range fields {
		switch g, known := packetFieldIndex[f]; {
		case !known:
			return nil, fmt.Errorf("field_extract: unknown field %q", f)
		case g.str:
			strs[f] = make([]string, n)
		default:
			numeric[f] = make([]float64, n)
		}
	}
	fr := newPacketFrame(n, pk.DS, ctx.streamBase())
	var car feCarry
	if v, ok := ctx.carry(); ok {
		car, _ = v.(feCarry)
	}
	ctx.setCarry(fieldExtractViews(pk.Views, numeric, strs, car))
	// Preserve the requested order.
	for _, f := range fields {
		if col, ok := numeric[f]; ok {
			fr.AddF(f, col)
		} else {
			fr.AddS(f, strs[f])
		}
	}
	return fr, nil
}

// fieldExtractViews fills the requested columns from the packet views,
// one column pass per field with the field switch hoisted out of the
// inner loop. Only the layers a field actually needs are decoded:
// metadata fields (ts/iat/len) trigger nothing, header fields run the
// one-pass L2-L4 decode on first touch, app fields force the app parse
// only on port-gated packets. The returned carry has advanced past every
// packet whether or not iat was requested.
func fieldExtractViews(views []netpkt.PacketView, numeric map[string][]float64, strs map[string][]string, car feCarry) feCarry {
	n := len(views)
	for f, col := range numeric {
		switch f {
		case "ts":
			for i := range views {
				col[i] = pktTime(views[i].Ts)
			}
		case "iat":
			prev, seen := car.prevTs, car.seen
			for i := range views {
				t := pktTime(views[i].Ts)
				if seen {
					col[i] = t - prev
				}
				prev, seen = t, true
			}
		case "len":
			for i := range views {
				col[i] = float64(views[i].WireLen())
			}
		case "payload_len":
			for i := range views {
				col[i] = float64(views[i].PayloadLen())
			}
		case "ttl":
			for i := range views {
				if ip, ok := views[i].IPv4(); ok {
					col[i] = float64(ip.TTL)
				}
			}
		case "ip_id":
			for i := range views {
				if ip, ok := views[i].IPv4(); ok {
					col[i] = float64(ip.ID)
				}
			}
		case "ip_tos":
			for i := range views {
				if ip, ok := views[i].IPv4(); ok {
					col[i] = float64(ip.TOS)
				}
			}
		case "proto":
			for i := range views {
				col[i] = float64(views[i].Protocol())
			}
		case "src_port":
			for i := range views {
				col[i] = float64(views[i].SrcPort())
			}
		case "dst_port":
			for i := range views {
				col[i] = float64(views[i].DstPort())
			}
		case "tcp_flags":
			for i := range views {
				if t, ok := views[i].TCP(); ok {
					col[i] = float64(t.Flags)
				}
			}
		case "tcp_syn":
			fillFlagCol(views, col, netpkt.FlagSYN)
		case "tcp_ack":
			fillFlagCol(views, col, netpkt.FlagACK)
		case "tcp_fin":
			fillFlagCol(views, col, netpkt.FlagFIN)
		case "tcp_rst":
			fillFlagCol(views, col, netpkt.FlagRST)
		case "tcp_psh":
			fillFlagCol(views, col, netpkt.FlagPSH)
		case "tcp_urg":
			fillFlagCol(views, col, netpkt.FlagURG)
		case "tcp_window":
			for i := range views {
				if t, ok := views[i].TCP(); ok {
					col[i] = float64(t.Window)
				}
			}
		case "udp_len":
			for i := range views {
				if u, ok := views[i].UDP(); ok {
					col[i] = float64(u.Length)
				}
			}
		case "icmp_type":
			for i := range views {
				if ic, ok := views[i].ICMP(); ok {
					col[i] = float64(ic.Type)
				}
			}
		case "icmp_code":
			for i := range views {
				if ic, ok := views[i].ICMP(); ok {
					col[i] = float64(ic.Code)
				}
			}
		case "is_arp":
			for i := range views {
				_, ok := views[i].ARP()
				col[i] = b2f(ok)
			}
		case "is_tcp":
			for i := range views {
				_, ok := views[i].TCP()
				col[i] = b2f(ok)
			}
		case "is_udp":
			for i := range views {
				_, ok := views[i].UDP()
				col[i] = b2f(ok)
			}
		case "is_icmp":
			for i := range views {
				_, ok := views[i].ICMP()
				col[i] = b2f(ok)
			}
		case "dns_qr":
			for i := range views {
				if d, ok := views[i].DNS(); ok && d.QR {
					col[i] = 1
				}
			}
		case "dns_qd":
			for i := range views {
				if d, ok := views[i].DNS(); ok {
					col[i] = float64(d.QDCount)
				}
			}
		case "is_http":
			for i := range views {
				_, ok := views[i].HTTP()
				col[i] = b2f(ok)
			}
		case "http_is_req":
			for i := range views {
				if h, ok := views[i].HTTP(); ok && h.IsRequest {
					col[i] = 1
				}
			}
		case "http_status":
			for i := range views {
				if h, ok := views[i].HTTP(); ok {
					col[i] = float64(h.Status)
				}
			}
		case "http_path_len":
			for i := range views {
				if h, ok := views[i].HTTP(); ok {
					col[i] = float64(len(h.Path))
				}
			}
		case "http_body_len":
			for i := range views {
				if h, ok := views[i].HTTP(); ok && h.ContentLength > 0 {
					col[i] = float64(h.ContentLength)
				}
			}
		case "is_mqtt":
			for i := range views {
				_, ok := views[i].MQTT()
				col[i] = b2f(ok)
			}
		case "mqtt_type":
			for i := range views {
				if m, ok := views[i].MQTT(); ok {
					col[i] = float64(m.Type)
				}
			}
		case "mqtt_qos":
			for i := range views {
				if m, ok := views[i].MQTT(); ok {
					col[i] = float64(m.QoS)
				}
			}
		case "mqtt_topic_len":
			for i := range views {
				if m, ok := views[i].MQTT(); ok {
					col[i] = float64(len(m.Topic))
				}
			}
		}
	}
	for f, col := range strs {
		switch f {
		case "src_ip":
			for i := range views {
				if a := views[i].SrcIP(); a.IsValid() {
					col[i] = a.String()
				} else if d, ok := views[i].Dot11(); ok {
					col[i] = d.Addr2.String() // MAC stands in on 802.11
				}
			}
		case "dst_ip":
			for i := range views {
				if a := views[i].DstIP(); a.IsValid() {
					col[i] = a.String()
				} else if d, ok := views[i].Dot11(); ok {
					col[i] = d.Addr1.String()
				}
			}
		case "src_mac":
			for i := range views {
				if e, ok := views[i].Eth(); ok {
					col[i] = e.Src.String()
				} else if d, ok := views[i].Dot11(); ok {
					col[i] = d.Addr2.String()
				}
			}
		case "dst_mac":
			for i := range views {
				if e, ok := views[i].Eth(); ok {
					col[i] = e.Dst.String()
				} else if d, ok := views[i].Dot11(); ok {
					col[i] = d.Addr1.String()
				}
			}
		}
	}
	if n > 0 {
		car.prevTs, car.seen = pktTime(views[n-1].Ts), true
	}
	return car
}

// fillFlagCol writes one TCP-flag indicator column from views.
func fillFlagCol(views []netpkt.PacketView, col []float64, f uint8) {
	for i := range views {
		if t, ok := views[i].TCP(); ok && t.HasFlag(f) {
			col[i] = 1
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// newPacketFrame builds an empty frame of n packet rows with unit
// metadata and labels copied from the dataset. base offsets UnitIdx so
// chunked runs attribute rows to global packet indices (0 on batch runs).
// n is passed explicitly because streamed chunks leave ds.Packets empty.
func newPacketFrame(n int, ds *dataset.Labeled, base int) *Frame {
	fr := NewFrame(n)
	fr.Unit = UnitPacket
	fr.UnitIdx = make([]int, n)
	for i := range fr.UnitIdx {
		fr.UnitIdx[i] = base + i
	}
	fr.Labels = append([]int(nil), ds.Labels...)
	fr.Attacks = append([]string(nil), ds.Attacks...)
	return fr
}

func opNPrint(ctx *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	var cfg features.NPrintConfig
	variant := p.str("variant", "all")
	switch variant {
	case "all":
		cfg = features.NPrintAll
	case "tcp_udp_ipv4":
		cfg = features.NPrintTCPUDPIPv4
	case "tcp_udp_ipv4_payload":
		cfg = features.NPrintWithPayload
	case "tcp_icmp_ipv4":
		cfg = features.NPrintTCPICMPIPv4
	default:
		return nil, fmt.Errorf("nprint: unknown variant %q", variant)
	}
	ds := pk.DS
	n := pk.Len()
	fr := newPacketFrame(n, ds, ctx.streamBase())
	w := cfg.Width()
	cols := make([][]float64, w)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	// One scratch row reused across packets: FillRow renders into it, the
	// scatter loop transposes into the column slices.
	row := make([]float64, w)
	for i := range pk.Views {
		cfg.FillRow(row, features.ShapeOf(&pk.Views[i]))
		for j, b := range row {
			cols[j][i] = b
		}
	}
	for j := range cols {
		fr.AddF(fmt.Sprintf("bit_%d", j), cols[j])
	}
	return fr, nil
}

// kitsuneStreams bundles the damped statistics of one grouping key.
type kitsuneStreams struct {
	src, chanl, sock *features.IncStat
	jitter           *features.IncStat
	two              *features.IncStat2D
}

// kitsuneCarry is the op's cross-chunk fold state: every incremental
// statistic is keyed by grouping and decay rate, and damped stats are
// strictly sequential, so chunked execution must resume from the same
// maps batch execution would have at that packet.
type kitsuneCarry struct {
	perLambda []map[string]*kitsuneStreams
	lastSeen  []map[string]float64
}

// fold ingests one packet — reduced to its timestamp, wire size, payload
// length and grouping keys — and writes row i of every column.
func (car *kitsuneCarry) fold(lambdas []float64, cols [][]float64, i int, t, size, payLen float64, srcKey, chanKey, sockKey string) {
	perLambda, lastSeen := car.perLambda, car.lastSeen
	for li, lam := range lambdas {
		st := perLambda[li][srcKey]
		if st == nil {
			st = &kitsuneStreams{
				src:    features.NewIncStat(lam),
				chanl:  features.NewIncStat(lam),
				sock:   features.NewIncStat(lam),
				jitter: features.NewIncStat(lam),
				two:    features.NewIncStat2D(lam),
			}
			perLambda[li][srcKey] = st
		}
		// Jitter: inter-arrival within the channel.
		if last, ok := lastSeen[li][chanKey]; ok {
			st.jitter.Insert(t-last, t)
		}
		lastSeen[li][chanKey] = t
		st.src.Insert(size, t)
		// Channel/socket stats live in dedicated stream objects keyed
		// by their own keys; reuse the map with prefixed keys.
		cst := perLambda[li]["c|"+chanKey]
		if cst == nil {
			cst = &kitsuneStreams{src: features.NewIncStat(lam), two: features.NewIncStat2D(lam)}
			perLambda[li]["c|"+chanKey] = cst
		}
		cst.src.Insert(size, t)
		cst.two.Insert(size, payLen, t)
		sst := perLambda[li]["s|"+sockKey]
		if sst == nil {
			sst = &kitsuneStreams{src: features.NewIncStat(lam)}
			perLambda[li]["s|"+sockKey] = sst
		}
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

// kitsune groupings: per-source stream, per-channel (src->dst) stream and
// per-socket (five-tuple) stream, each at several decay rates.
func opKitsuneFeatures(ctx *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	lambdas := []float64{1, 0.1, 0.01}
	if ls := p.anyList("lambdas"); ls != nil {
		lambdas = lambdas[:0]
		for _, l := range ls {
			if f, ok := l.(float64); ok {
				lambdas = append(lambdas, f)
			}
		}
	}
	ds := pk.DS
	n := pk.Len()
	fr := newPacketFrame(n, ds, ctx.streamBase())
	nFeat := len(lambdas) * 13
	cols := make([][]float64, nFeat)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	prev, _ := ctx.carry()
	car, ok := prev.(*kitsuneCarry)
	if !ok {
		car = &kitsuneCarry{
			perLambda: make([]map[string]*kitsuneStreams, len(lambdas)),
			lastSeen:  make([]map[string]float64, len(lambdas)),
		}
		for li := range lambdas {
			car.perLambda[li] = map[string]*kitsuneStreams{}
			car.lastSeen[li] = map[string]float64{}
		}
		ctx.setCarry(car)
	}
	for i := range pk.Views {
		vw := &pk.Views[i]
		srcKey, chanKey, sockKey := kitsuneKeys(vw)
		car.fold(lambdas, cols, i, pktTime(vw.Ts), float64(vw.WireLen()),
			float64(vw.PayloadLen()), srcKey, chanKey, sockKey)
	}
	names := []string{"srcw", "srcmean", "srcstd", "chw", "chmean", "chstd", "skw", "skmean", "skstd", "jitmean", "jitstd", "mag", "cov"}
	for li, lam := range lambdas {
		for k, nm := range names {
			fr.AddF(fmt.Sprintf("k_%g_%s", lam, nm), cols[li*13+k])
		}
	}
	return fr, nil
}

// kitsuneKeys derives grouping keys, falling back to MACs on 802.11
// (Kitsune is the one algorithm the paper can run on AWID3).
func kitsuneKeys(v *netpkt.PacketView) (src, channel, socket string) {
	if a := v.SrcIP(); a.IsValid() {
		src = a.String()
		channel = src + ">" + v.DstIP().String()
		if ft, ok := v.Tuple(); ok {
			socket = ft.String()
		} else {
			socket = channel
		}
		return src, channel, socket
	}
	if d, ok := v.Dot11(); ok {
		src = d.Addr2.String()
		channel = src + ">" + d.Addr1.String()
		return src, channel, channel
	}
	if e, ok := v.Eth(); ok {
		src = e.Src.String()
		channel = src + ">" + e.Dst.String()
		return src, channel, channel
	}
	return "?", "?", "?"
}

// dot11Carry keeps the per-transmitter damped rate trackers alive
// across chunks so streamed execution matches batch execution.
type dot11Carry struct {
	perTx       map[string]*features.IncStat
	perTxDeauth map[string]*features.IncStat
}

// dot11Fill bundles the output columns and rate trackers of one
// dot11_features evaluation; fold writes row i from one 802.11 header.
type dot11Fill struct {
	subtype, mgmt, retry, duration, rate, deauthRate, plen []float64
	perTx, perTxDeauth                                     map[string]*features.IncStat
	lam                                                    float64
}

func (f *dot11Fill) fold(i int, d *netpkt.Dot11, t, payLen float64) {
	f.subtype[i] = float64(d.Subtype)
	f.mgmt[i] = b2f(d.Subtype.IsManagement())
	f.retry[i] = b2f(d.Retry)
	f.duration[i] = float64(d.Duration)
	f.plen[i] = payLen
	key := d.Addr2.String()
	st := f.perTx[key]
	if st == nil {
		st = features.NewIncStat(f.lam)
		f.perTx[key] = st
	}
	st.Insert(1, t)
	f.rate[i] = st.Weight()
	dst := f.perTxDeauth[key]
	if dst == nil {
		dst = features.NewIncStat(f.lam)
		f.perTxDeauth[key] = dst
	}
	if d.Subtype == netpkt.Dot11Deauth || d.Subtype == netpkt.Dot11Disassoc {
		dst.Insert(1, t)
	}
	f.deauthRate[i] = dst.Weight()
}

func opDot11Features(ctx *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	ds := pk.DS
	n := pk.Len()
	fr := newPacketFrame(n, ds, ctx.streamBase())
	lam := p.f64("lambda", 0.5)
	prev, _ := ctx.carry()
	car, ok := prev.(*dot11Carry)
	if !ok {
		car = &dot11Carry{perTx: map[string]*features.IncStat{}, perTxDeauth: map[string]*features.IncStat{}}
		ctx.setCarry(car)
	}
	fill := &dot11Fill{
		subtype: make([]float64, n), mgmt: make([]float64, n),
		retry: make([]float64, n), duration: make([]float64, n),
		rate: make([]float64, n), deauthRate: make([]float64, n),
		plen:  make([]float64, n),
		perTx: car.perTx, perTxDeauth: car.perTxDeauth, lam: lam,
	}
	for i := range pk.Views {
		vw := &pk.Views[i]
		if d, ok := vw.Dot11(); ok {
			fill.fold(i, d, pktTime(vw.Ts), float64(vw.PayloadLen()))
		}
	}
	fr.AddF("subtype", fill.subtype)
	fr.AddF("is_mgmt", fill.mgmt)
	fr.AddF("retry", fill.retry)
	fr.AddF("duration", fill.duration)
	fr.AddF("tx_rate", fill.rate)
	fr.AddF("tx_deauth_rate", fill.deauthRate)
	fr.AddF("payload_len", fill.plen)
	return fr, nil
}
