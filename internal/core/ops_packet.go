package core

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strconv"
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
		opTraits{class: classRowLocal, ordered: always, decode: headers, cacheable: true, check: checkKitsuneParams}, opKitsuneFeatures)
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
	for _, f := range fields {
		if _, known := packetFieldIndex[f]; !known {
			return nil, fmt.Errorf("field_extract: unknown field %q", f)
		}
	}
	n := pk.Len()
	a := ctx.scratch.arena()
	fr := newPacketFrame(n, len(fields), pk.DS, ctx.stream.base, a)
	car, _ := ctx.carry().(feCarry)
	// One column pass per field, in the requested order, with the field
	// switch hoisted out of the inner loop.
	for _, f := range fields {
		if packetFieldIndex[f].str {
			col := make([]string, n)
			fillStringField(pk.Views, f, col)
			fr.AddS(f, col)
		} else {
			col := a.floats(n)
			fillNumericField(pk.Views, f, col, car)
			fr.AddF(f, col)
		}
	}
	// Only iat folds across chunks: only then is the op ordered (see
	// fieldsOrdered), with a carry to save into (a worker job has none).
	if slices.Contains(fields, "iat") {
		if n > 0 {
			car.prevTs, car.seen = pktTime(pk.Views[n-1].Ts), true
		}
		ctx.setCarry(car)
	}
	return fr, nil
}

// fillNumericField fills one numeric field's column from the packet
// views, decoding only the layers the field needs: metadata fields
// (ts/iat/len) trigger nothing, header fields run the one-pass L2-L4
// decode on first touch, app fields force the app parse only on
// port-gated packets. car is the fold state as of the chunk's first
// packet (iat reads it).
func fillNumericField(views []netpkt.PacketView, f string, col []float64, car feCarry) {
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

// fillStringField fills one address field's column from the packet views.
func fillStringField(views []netpkt.PacketView, f string, col []string) {
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
// metadata, its unit index drawn from a, and the dataset's labels
// aliased, not copied: no op writes a frame's labels in place, and no
// source reuses a chunk's (dataset.Chunk). base offsets UnitIdx so
// chunked runs attribute rows to global packet indices (0 on the first chunk).
// n is passed explicitly because streamed chunks leave ds.Packets empty.
// The column list is sized for the cols columns the op adds, so it
// does not grow column by column.
func newPacketFrame(n, cols int, ds *dataset.Labeled, base int, a *chunkArena) *Frame {
	fr := &Frame{N: n, Cols: make([]Column, 0, cols)}
	fr.Unit = UnitPacket
	fr.UnitIdx = a.ints(n)
	for i := range fr.UnitIdx {
		fr.UnitIdx[i] = base + i
	}
	fr.Labels = shareRows(ds.Labels)
	fr.Attacks = shareRows(ds.Attacks)
	return fr
}

// shareRows is s capped at its length, nil when empty: what copying s
// into a fresh slice would give, without the copy.
func shareRows[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
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
	n := pk.Len()
	a := ctx.scratch.arena()
	w := cfg.Width()
	fr := newPacketFrame(n, w, pk.DS, ctx.stream.base, a)
	cols := a.rows(w)
	for j := range cols {
		cols[j] = a.floats(n)
	}
	// One scratch row reused across packets: FillRow renders into it, the
	// scatter loop transposes into the column slices.
	row := a.floats(w)
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

// kitsuneStats names the 13 statistics kitsune_features emits per decay
// rate, in column order: weight, mean and std of packet size per source,
// channel and socket, the source's inter-arrival jitter, and the
// channel's size × payload magnitude and covariance.
var kitsuneStats = [...]string{"srcw", "srcmean", "srcstd", "chw", "chmean", "chstd", "skw", "skmean", "skstd", "jitmean", "jitstd", "mag", "cov"}

// kitsuneLambdas reads the op's decay rates: a non-empty list of finite,
// non-negative numbers (0 turns damping off), 1, 0.1 and 0.01 when unset.
func kitsuneLambdas(p params) ([]float64, error) {
	raw := p["lambdas"]
	if raw == nil {
		return []float64{1, 0.1, 0.01}, nil
	}
	list, ok := raw.([]any)
	if !ok || len(list) == 0 {
		return nil, fmt.Errorf("kitsune_features: lambdas must be a non-empty list of decay rates, got %v", raw)
	}
	lambdas := make([]float64, len(list))
	for i, l := range list {
		switch v := l.(type) {
		case float64:
			lambdas[i] = v
		case int:
			lambdas[i] = float64(v)
		default:
			return nil, fmt.Errorf("kitsune_features: lambdas[%d] is %v, want a number", i, l)
		}
		if !(lambdas[i] >= 0) || math.IsInf(lambdas[i], 1) {
			return nil, fmt.Errorf("kitsune_features: lambdas[%d] is %v, want a finite decay rate >= 0", i, l)
		}
	}
	return lambdas, nil
}

// checkKitsuneParams is the op's type-check: a template with unusable
// decay rates is refused when it is parsed, not at its first packet.
func checkKitsuneParams(p params) error {
	_, err := kitsuneLambdas(p)
	return err
}

// keyKind says which addresses a kitsuneKey was built from. Keys of
// different kinds never compare equal, whatever their bytes.
type keyKind uint8

const (
	keyNone  keyKind = iota // no address layer decoded: one shared stream
	keyIP                   // IP endpoints (ARP's sender and target included)
	keyMAC                  // 802.11 or Ethernet MACs, on frames without IP
	keyTuple                // a full five-tuple (socket grouping only)
)

// kitsuneKey identifies one stream of a grouping by the packet's address
// bytes, and holds no pointer, so a map of them is never scanned. A
// source key fills a only, a channel key a and b, a socket key the whole
// tuple when the packet has one and the channel key otherwise. An IP
// address is its 16-byte form with its family (4 or 6; 0 for none) in
// fa or fb, which keeps an IPv4 address apart from its IPv4-mapped IPv6
// form as netip does; addresses decoded from wire bytes carry no zone. A
// MAC fills the first 6 bytes.
type kitsuneKey struct {
	a, b         [16]byte
	sport, dport uint16
	proto        uint8
	fa, fb       uint8
	kind         keyKind
}

// ipFamily is an address's family as a kitsuneKey records it.
func ipFamily(a netip.Addr) uint8 {
	switch {
	case a.Is4():
		return 4
	case a.Is6():
		return 6
	}
	return 0
}

// kitsuneKeys derives the grouping keys, falling back to MACs on 802.11
// (Kitsune is the one algorithm the paper can run on AWID3). Each
// address is converted once: the source key is the channel key's first
// half, and a socket key the channel key plus the tuple's ports and
// protocol, since a view's tuple is between its SrcIP and DstIP.
func kitsuneKeys(v *netpkt.PacketView) (src, channel, socket kitsuneKey) {
	if a := v.SrcIP(); a.IsValid() {
		d := v.DstIP()
		channel = kitsuneKey{kind: keyIP, a: a.As16(), fa: ipFamily(a), b: d.As16(), fb: ipFamily(d)}
		src = kitsuneKey{kind: keyIP, a: channel.a, fa: channel.fa}
		if ft, ok := v.Tuple(); ok {
			socket = channel
			socket.kind, socket.sport, socket.dport, socket.proto = keyTuple, ft.SrcPort, ft.DstPort, ft.Proto
			return src, channel, socket
		}
		return src, channel, channel
	}
	var from, to netpkt.MAC
	if d, ok := v.Dot11(); ok {
		from, to = d.Addr2, d.Addr1
	} else if e, ok := v.Eth(); ok {
		from, to = e.Src, e.Dst
	} else {
		return src, channel, socket
	}
	src = kitsuneKey{kind: keyMAC}
	copy(src.a[:], from[:])
	channel = src
	copy(channel.b[:], to[:])
	return src, channel, channel
}

// srcStat is one source at one decay rate: its packet sizes, and the
// inter-arrival times of the channels its packets travel on.
type srcStat struct{ size, jitter features.IncStat }

// slabBlock is how many streams one block of a streamSlab holds.
const slabBlock = 64

// streamSlab holds one grouping's statistics: len(fresh) records a
// stream, in blocks of slabBlock streams that never move, so a stream's
// id addresses its records for as long as it lives. Ids freed by a sweep
// are handed out again before a new one is carved.
type streamSlab[T any] struct {
	fresh  []T // a new stream's records, one per decay rate
	blocks [][]T
	carved int32 // ids ever handed out, live or freed
	free   []int32
}

// at is stream id's records.
func (s *streamSlab[T]) at(id int32) []T {
	per := len(s.fresh)
	o := int(id%slabBlock) * per
	return s.blocks[id/slabBlock][o : o+per : o+per]
}

// take hands out a stream id, a freed one first, with its records set to
// a new stream's.
func (s *streamSlab[T]) take() int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if int(s.carved) == len(s.blocks)*slabBlock {
			s.blocks = append(s.blocks, make([]T, slabBlock*len(s.fresh)))
		}
		id = s.carved
		s.carved++
	}
	copy(s.at(id), s.fresh)
	return id
}

// streamSweepEvery is how many folded packets pass between two sweeps
// for faded streams, in kitsune_features and dot11_features alike.
const streamSweepEvery = 1 << 14

// kitsuneCarry is the op's fold state: per grouping, a map from key to
// stream id and a slab holding each stream's statistics at every decay
// rate contiguously, so a packet costs three probes and allocates only
// when a slab or map outgrows its room; each map starts with room for one
// block of streams. Damped statistics are strictly
// sequential: a chunk resumes from the state one whole-trace chunk would
// have at that packet, and sweeps are clocked by packets folded, never by
// chunks.
type kitsuneCarry struct {
	lambdas []float64
	names   []string // column names, kitsuneStats per decay rate
	// horizon is the idle time after which a stream's history has faded
	// below 2^-64 at every decay rate; +Inf when one of them is 0.
	horizon float64
	folded  int
	srcs    map[kitsuneKey]int32
	chans   map[kitsuneKey]int32
	socks   map[kitsuneKey]int32
	srcStat streamSlab[srcStat]
	// chanStat's A side doubles as the channel's size statistic.
	chanStat streamSlab[features.IncStat2D]
	sockStat streamSlab[features.IncStat]
	// chanLast is, by channel id, when the channel last carried a packet:
	// what jitter is measured from.
	chanLast []float64
}

func newKitsuneCarry(lambdas []float64) *kitsuneCarry {
	car := &kitsuneCarry{
		lambdas: lambdas,
		horizon: 64 / slices.Min(lambdas),
		srcs:    make(map[kitsuneKey]int32, slabBlock),
		chans:   make(map[kitsuneKey]int32, slabBlock),
		socks:   make(map[kitsuneKey]int32, slabBlock),
		names:   make([]string, 0, len(lambdas)*len(kitsuneStats)),
	}
	car.srcStat.fresh = make([]srcStat, len(lambdas))
	car.chanStat.fresh = make([]features.IncStat2D, len(lambdas))
	car.sockStat.fresh = make([]features.IncStat, len(lambdas))
	for li, lam := range lambdas {
		car.srcStat.fresh[li] = srcStat{size: features.IncStat{Lambda: lam}, jitter: features.IncStat{Lambda: lam}}
		car.chanStat.fresh[li] = *features.NewIncStat2D(lam)
		car.sockStat.fresh[li].Lambda = lam
		prefix := "k_" + strconv.FormatFloat(lam, 'g', -1, 64) + "_" // fmt's %g
		for _, nm := range kitsuneStats {
			car.names = append(car.names, prefix+nm)
		}
	}
	return car
}

// streamID is key's stream id in ids, taken from slab when the key is
// new; known says whether it was already there.
func streamID[T any](ids map[kitsuneKey]int32, slab *streamSlab[T], key kitsuneKey) (id int32, known bool) {
	if id, known = ids[key]; !known {
		id = slab.take()
		ids[key] = id
	}
	return id, known
}

// fold ingests one packet — reduced to its timestamp, wire size, payload
// length and grouping keys — and writes row i of every column.
func (car *kitsuneCarry) fold(cols [][]float64, i int, t, size, payLen float64, srcKey, chanKey, sockKey kitsuneKey) {
	srcID, _ := streamID(car.srcs, &car.srcStat, srcKey)
	sockID, _ := streamID(car.socks, &car.sockStat, sockKey)
	chID, known := streamID(car.chans, &car.chanStat, chanKey)
	if int(chID) == len(car.chanLast) { // ids are carved in order
		car.chanLast = append(car.chanLast, 0)
	}
	src, ch, sock := car.srcStat.at(srcID), car.chanStat.at(chID), car.sockStat.at(sockID)
	gap := t - car.chanLast[chID]
	car.chanLast[chID] = t
	for li := range car.lambdas {
		s, c, k := &src[li], &ch[li], &sock[li]
		// Jitter: inter-arrival within the channel.
		if known {
			s.jitter.Insert(gap, t)
		}
		s.size.Insert(size, t)
		c.Insert(size, payLen, t)
		k.Insert(size, t)

		col := cols[li*len(kitsuneStats):]
		col[0][i] = s.size.Weight()
		col[1][i] = s.size.Mean()
		col[2][i] = s.size.Std()
		col[3][i] = c.A.Weight()
		col[4][i] = c.A.Mean()
		col[5][i] = c.A.Std()
		col[6][i] = k.Weight()
		col[7][i] = k.Mean()
		col[8][i] = k.Std()
		col[9][i] = s.jitter.Mean()
		col[10][i] = s.jitter.Std()
		col[11][i] = c.Magnitude()
		col[12][i] = c.Cov()
	}
	car.folded++
}

// sweepStreams drops every stream of ids whose records say, by lastTs,
// it has been idle at time now for longer than horizon, and frees its id
// in slab. It returns how many streams went.
func sweepStreams[T any](ids map[kitsuneKey]int32, slab *streamSlab[T], now, horizon float64, lastTs func(*T) float64) (evicted int) {
	for k, id := range ids {
		if now-lastTs(&slab.at(id)[0]) > horizon {
			delete(ids, k)
			slab.free = append(slab.free, id)
			evicted++
		}
	}
	return evicted
}

// sweep drops every stream idle at time now for longer than the horizon:
// its next packet would meet history faded below 2^-64, so it starts
// afresh instead, in a slot re-initialised by take. It returns how many
// streams went.
func (car *kitsuneCarry) sweep(now float64) (evicted int) {
	return sweepStreams(car.srcs, &car.srcStat, now, car.horizon, func(s *srcStat) float64 { return s.size.LastTs() }) +
		sweepStreams(car.chans, &car.chanStat, now, car.horizon, func(c *features.IncStat2D) float64 { return c.A.LastTs() }) +
		sweepStreams(car.socks, &car.sockStat, now, car.horizon, (*features.IncStat).LastTs)
}

// kitsune groupings: per-source stream, per-channel (src->dst) stream and
// per-socket (five-tuple) stream, each at several decay rates.
func opKitsuneFeatures(ctx *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	car, ok := ctx.carry().(*kitsuneCarry)
	if !ok {
		lambdas, err := kitsuneLambdas(p)
		if err != nil {
			return nil, err
		}
		car = newKitsuneCarry(lambdas)
		ctx.setCarry(car)
	}
	n := pk.Len()
	a := ctx.scratch.arena()
	fr := newPacketFrame(n, len(car.names), pk.DS, ctx.stream.base, a)
	// One block backs every column; each is capped so an append to one
	// cannot run into the next.
	block := a.floats(len(car.names) * n)
	cols := a.rows(len(car.names))
	for j := range cols {
		cols[j] = block[j*n : (j+1)*n : (j+1)*n]
	}
	evicted := 0
	for i := range pk.Views {
		vw := &pk.Views[i]
		srcKey, chanKey, sockKey := kitsuneKeys(vw)
		t := pktTime(vw.Ts)
		car.fold(cols, i, t, float64(vw.WireLen()), float64(vw.PayloadLen()), srcKey, chanKey, sockKey)
		if car.folded%streamSweepEvery == 0 {
			evicted += car.sweep(t)
		}
	}
	for j, name := range car.names {
		fr.AddF(name, cols[j])
	}
	if ctx != nil {
		ctx.metrics.Gauge("lumen_kitsune_streams",
			"Source, channel and socket streams kitsune_features holds statistics for.").
			Set(float64(len(car.srcs) + len(car.chans) + len(car.socks)))
		ctx.metrics.Counter("lumen_kitsune_streams_evicted_total",
			"Streams kitsune_features dropped after their history faded below 2^-64 at every decay rate.").
			Add(uint64(evicted))
	}
	return fr, nil
}

// dot11Tx is one transmitter's damped frame rate and its rate of
// deauthentication and disassociation frames.
type dot11Tx struct{ all, deauth features.IncStat }

// dot11Carry keeps the per-transmitter rate trackers alive across chunks
// so every chunking matches the whole-trace pass, and bounds them the way
// kitsuneCarry bounds its streams: every streamSweepEvery frames folded
// (never per chunk, so the columns do not depend on chunk size) the
// transmitters idle past the horizon go.
type dot11Carry struct {
	perTx map[netpkt.MAC]*dot11Tx
	// horizon is the idle time after which a transmitter's rates have
	// faded below 2^-64; +Inf with damping off.
	horizon float64
	folded  int
}

// sweep drops every transmitter idle at time now for longer than the
// horizon; one that returns starts afresh. It returns how many went.
func (car *dot11Carry) sweep(now float64) (evicted int) {
	for mac, tx := range car.perTx {
		if now-tx.all.LastTs() > car.horizon {
			delete(car.perTx, mac)
			evicted++
		}
	}
	return evicted
}

// dot11Fill bundles the output columns and rate trackers of one
// dot11_features evaluation; fold writes row i from one 802.11 header.
type dot11Fill struct {
	subtype, mgmt, retry, duration, rate, deauthRate, plen []float64
	perTx                                                  map[netpkt.MAC]*dot11Tx
	lam                                                    float64
}

func (f *dot11Fill) fold(i int, d *netpkt.Dot11, t, payLen float64) {
	f.subtype[i] = float64(d.Subtype)
	f.mgmt[i] = b2f(d.Subtype.IsManagement())
	f.retry[i] = b2f(d.Retry)
	f.duration[i] = float64(d.Duration)
	f.plen[i] = payLen
	tx := f.perTx[d.Addr2]
	if tx == nil {
		tx = &dot11Tx{all: features.IncStat{Lambda: f.lam}, deauth: features.IncStat{Lambda: f.lam}}
		f.perTx[d.Addr2] = tx
	}
	tx.all.Insert(1, t)
	f.rate[i] = tx.all.Weight()
	if d.Subtype == netpkt.Dot11Deauth || d.Subtype == netpkt.Dot11Disassoc {
		tx.deauth.Insert(1, t)
	}
	f.deauthRate[i] = tx.deauth.Weight()
}

func opDot11Features(ctx *opCtx, in []Value, p params) (Value, error) {
	pk, err := asPackets(in[0])
	if err != nil {
		return nil, err
	}
	n := pk.Len()
	a := ctx.scratch.arena()
	fr := newPacketFrame(n, 7, pk.DS, ctx.stream.base, a) // the columns added below
	lam := p.f64("lambda", 0.5)
	car, ok := ctx.carry().(*dot11Carry)
	if !ok {
		car = &dot11Carry{perTx: map[netpkt.MAC]*dot11Tx{}, horizon: math.Inf(1)}
		if lam > 0 {
			car.horizon = 64 / lam
		}
		ctx.setCarry(car)
	}
	fill := &dot11Fill{
		subtype: a.floats(n), mgmt: a.floats(n),
		retry: a.floats(n), duration: a.floats(n),
		rate: a.floats(n), deauthRate: a.floats(n),
		plen:  a.floats(n),
		perTx: car.perTx, lam: lam,
	}
	evicted := 0
	for i := range pk.Views {
		vw := &pk.Views[i]
		if d, ok := vw.Dot11(); ok {
			t := pktTime(vw.Ts)
			fill.fold(i, d, t, float64(vw.PayloadLen()))
			if car.folded++; car.folded%streamSweepEvery == 0 {
				evicted += car.sweep(t)
			}
		}
	}
	if ctx != nil {
		ctx.metrics.Gauge("lumen_dot11_streams",
			"Transmitters dot11_features holds frame rates for.").
			Set(float64(len(car.perTx)))
		ctx.metrics.Counter("lumen_dot11_streams_evicted_total",
			"Transmitters dot11_features dropped after their rates faded below 2^-64.").
			Add(uint64(evicted))
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
