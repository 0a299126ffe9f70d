package core

import (
	"encoding/binary"
	"math"
	"net/netip"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// kitsuneRun folds frames through kitsune_features the way a streaming
// pass does — chunk rows at a time (0: one batch call) over one carried
// state — and returns the concatenated columns.
func kitsuneRun(t testing.TB, frames []refFrame, chunk int, p params, m *obs.Metrics) [][]float64 {
	t.Helper()
	return chunkedRun(t, opKitsuneFeatures, frames, chunk, p, m)
}

// chunkedRun is kitsuneRun for any carry-state packet op.
func chunkedRun(t testing.TB, op func(*opCtx, []Value, params) (Value, error), frames []refFrame, chunk int, p params, m *obs.Metrics) [][]float64 {
	t.Helper()
	ctx := &opCtx{outName: "feats", metrics: m, stream: &streamCtx{carry: make([]any, 1)}}
	if chunk <= 0 {
		chunk = len(frames)
	}
	var cols [][]float64
	for lo := 0; lo < len(frames); lo += chunk {
		hi := min(lo+chunk, len(frames))
		ctx.stream.base = lo
		out, err := op(ctx, []Value{Packets{DS: &dataset.Labeled{}, Views: viewsOf(frames[lo:hi])}}, p)
		if err != nil {
			t.Fatal(err)
		}
		fr := out.(*Frame)
		if cols == nil {
			cols = make([][]float64, len(fr.Cols))
		}
		for j := range fr.Cols {
			cols[j] = append(cols[j], fr.Cols[j].F...)
		}
	}
	return cols
}

func sameBits(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d columns, want %d", what, len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("%s: column %d has %d rows, want %d", what, j, len(got[j]), len(want[j]))
		}
		for i := range want[j] {
			if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
				t.Fatalf("%s: column %d, packet %d: %v, want %v", what, j, i, got[j][i], want[j][i])
			}
		}
	}
}

// TestKitsuneFeaturesMatchStringKeyedOracle: on every packet of every
// registry dataset, at every chunking, the op's columns equal the
// string-keyed reference's bit for bit — with the sweep compiled in, since
// no registry trace idles long enough to evict.
func TestKitsuneFeaturesMatchStringKeyedOracle(t *testing.T) {
	lambdas := []float64{1, 0.1, 0.01}
	for _, spec := range dataset.Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			ds := spec.Generate(1)
			frames := datasetFrames(ds, len(ds.Packets))
			pkts := make([]*netpkt.Packet, len(frames))
			for i, v := range viewsOf(frames) {
				pkts[i] = v.Materialize()
			}
			want := refKitsuneColumns(pkts, lambdas)
			for _, chunk := range []int{0, 1, 64, 512} {
				m := obs.NewMetrics()
				sameBits(t, spec.ID, kitsuneRun(t, frames, chunk, params{}, m), want)
				if n := m.Counter("lumen_kitsune_streams_evicted_total", "").Value(); n != 0 {
					t.Fatalf("%s evicted %d streams; the comparison needs a trace that evicts none", spec.ID, n)
				}
			}
		})
	}
}

// udpFrame is a minimal Ethernet/IPv4/UDP frame from src to 10.0.0.1.
func udpFrame(t testing.TB, src netip.Addr) []byte {
	t.Helper()
	p := &netpkt.Packet{
		Eth:  &netpkt.Ethernet{Dst: netpkt.MAC{2, 0, 0, 0, 0, 2}, Src: netpkt.MAC{2, 0, 0, 0, 0, 1}, EtherType: netpkt.EtherTypeIPv4},
		IPv4: &netpkt.IPv4{TTL: 64, Protocol: netpkt.ProtoUDP, Src: src, Dst: netip.AddrFrom4([4]byte{10, 0, 0, 1})},
		UDP:  &netpkt.UDP{SrcPort: 4000, DstPort: 5000}, Payload: []byte("reading"),
	}
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// churnFrames is a stream of n packets one second apart, each from a
// source address never seen before: frame i comes from 11.0.0.0 + i.
func churnFrames(t testing.TB, first, n int) []refFrame {
	tmpl := udpFrame(t, netip.AddrFrom4([4]byte{11, 0, 0, 0}))
	out := make([]refFrame, n)
	for i := range out {
		raw := append([]byte(nil), tmpl...)
		binary.BigEndian.PutUint32(raw[26:30], 11<<24+uint32(first+i))
		out[i] = refFrame{link: netpkt.LinkEthernet, ts: time.Unix(int64(first+i), 0), raw: raw}
	}
	return out
}

// TestKitsuneEvictionBoundsState: a stream of ever-new sources, each
// active for one packet, spread over ~770 eviction horizons (λ = 1: 64 s)
// leaves only the streams of the last horizon behind at every sweep;
// every other one is counted as evicted; the columns do not depend on
// chunk size; and a source returning after its stream was dropped starts
// afresh, where the never-evicting reference still carries its history.
func TestKitsuneEvictionBoundsState(t *testing.T) {
	const n = 3 * streamSweepEvery
	frames := churnFrames(t, 0, n)
	// The very first source comes back at the end, long evicted.
	frames[n-1].raw = frames[0].raw
	p := params{"lambdas": []any{1.0}}

	m := obs.NewMetrics()
	want := kitsuneRun(t, frames, 512, p, m)
	live := m.Gauge("lumen_kitsune_streams", "").Value()
	evicted := m.Counter("lumen_kitsune_streams_evicted_total", "").Value()
	// 65 packets lie within 64 s of the last one; three groupings.
	if live != 3*65 {
		t.Errorf("%v streams live after the last sweep, want the %d of one horizon", live, 3*65)
	}
	// n-1 distinct sources, the first one's streams created twice.
	if created := uint64(3 * n); evicted+uint64(live) != created {
		t.Errorf("evicted %d + live %v streams, want the %d ever created", evicted, live, created)
	}
	for _, chunk := range []int{0, 1, 64} {
		sameBits(t, "chunk size under eviction", kitsuneRun(t, frames, chunk, p, nil), want)
	}

	// A faded weight is invisible by construction (1 + 2^-64 is 1); what
	// shows is the channel: dropped, it has no last packet to measure the
	// returning one's inter-arrival time from.
	const jitmean = 9
	if j := want[jitmean][n-1]; j != 0 {
		t.Errorf("returning source's jitter mean = %v, want 0: its channel was dropped", j)
	}
	pkts := make([]*netpkt.Packet, n)
	for i, v := range viewsOf(frames) {
		pkts[i] = v.Materialize()
	}
	ref := refKitsuneColumns(pkts, []float64{1})
	if j := ref[jitmean][n-1]; j != n-1 {
		t.Errorf("the never-evicting reference's jitter mean = %v, want the %d s the channel idled", j, n-1)
	}
	for j := range want {
		want[j], ref[j] = want[j][:n-1], ref[j][:n-1]
	}
	sameBits(t, "every packet but the returning one", want, ref)
}

// TestKitsuneLiveHeapFlat: the heap a resident pass holds after 2 sweep
// periods of ever-new sources and after 6 differ by far less than the
// ~45 MB that 4 periods of never-evicted streams would take.
func TestKitsuneLiveHeapFlat(t *testing.T) {
	ctx := &opCtx{outName: "feats", stream: &streamCtx{carry: make([]any, 1)}}
	p := params{"lambdas": []any{1.0}}
	heapAfter := func(from, periods int) uint64 {
		for lo := from * streamSweepEvery; lo < (from+periods)*streamSweepEvery; lo += 512 {
			views := viewsOf(churnFrames(t, lo, 512))
			if _, err := opKitsuneFeatures(ctx, []Value{Packets{DS: &dataset.Labeled{}, Views: views}}, p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	early := heapAfter(0, 2)
	late := heapAfter(2, 4)
	if late > early+4<<20 {
		t.Errorf("live heap grew from %d to %d bytes over %d packets of new sources", early, late, 4*streamSweepEvery)
	}
}

// TestKitsuneFeaturesSteadyStateAllocations: once every stream of a chunk
// is known, folding it allocates the frame and its column block only —
// the same few objects for 64 rows as for 512, nothing per packet.
func TestKitsuneFeaturesSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	spec, _ := dataset.Get("P1")
	frames := datasetFrames(spec.Generate(1), 512)
	if len(frames) < 512 {
		t.Fatalf("P1 has only %d packets", len(frames))
	}
	ctx := &opCtx{outName: "feats", stream: &streamCtx{carry: make([]any, 1)}}
	allocs := func(rows int) float64 {
		views := viewsOf(frames[:rows])
		for i := range views {
			views[i].Predecode(netpkt.DecodeHint{Headers: true})
		}
		in := []Value{Packets{DS: &dataset.Labeled{}, Views: views}}
		return testing.AllocsPerRun(20, func() {
			if _, err := opKitsuneFeatures(ctx, in, params{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(512) // every stream of the 512 packets now exists
	small, large := allocs(64), allocs(512)
	if small != large {
		t.Errorf("a warm chunk allocates %v times for 64 rows and %v for 512: something allocates per packet", small, large)
	}
	if large > 5 {
		t.Errorf("a warm 512-row chunk allocates %v times, want at most 5 (the frame, its column list and metadata, one column block)", large)
	}
}

// socketChurnFrames is n packets one second apart between the same two
// hosts, each from a source port never seen before: every one opens a
// new socket, and only the first a new source and channel.
func socketChurnFrames(t testing.TB, n int) []refFrame {
	tmpl := udpFrame(t, netip.AddrFrom4([4]byte{11, 0, 0, 0}))
	out := make([]refFrame, n)
	for i := range out {
		raw := append([]byte(nil), tmpl...)
		binary.BigEndian.PutUint16(raw[34:36], uint16(1024+i)) // UDP source port
		out[i] = refFrame{link: netpkt.LinkEthernet, ts: time.Unix(int64(i), 0), raw: raw}
	}
	return out
}

// TestKitsuneNewStreamsAllocateByBlock: 4 096 packets that each open a
// new socket cost the op at most one object per 32 of them — the slab's
// 64-stream blocks, the socket map's growth and the frame — where a
// stream with its own records cost at least one each.
func TestKitsuneNewStreamsAllocateByBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 4096
	views := viewsOf(socketChurnFrames(t, n))
	for i := range views {
		views[i].Predecode(netpkt.DecodeHint{Headers: true})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := &opCtx{outName: "feats", stream: &streamCtx{carry: make([]any, 1)}}
	// A chunk of no packets builds the carry: what is measured is the
	// streams, not the column names.
	if _, err := opKitsuneFeatures(ctx, []Value{Packets{DS: &dataset.Labeled{}}}, params{}); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := opKitsuneFeatures(ctx, []Value{Packets{DS: &dataset.Labeled{}, Views: views}}, params{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	car := ctx.stream.carry[0].(*kitsuneCarry)
	if len(car.socks) != n {
		t.Fatalf("%d sockets, want %d", len(car.socks), n)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n/32 {
		t.Errorf("%d packets opening new sockets allocated %d objects, want at most %d", n, allocs, n/32)
	}
}

// TestKitsuneSweptStreamsReuseSlots: over 6 sweep periods of ever-new
// sources, the ids a sweep frees are taken again, so the slots each
// grouping ever carves stay within its peak of live streams plus one
// block — not one slot per stream ever seen.
func TestKitsuneSweptStreamsReuseSlots(t *testing.T) {
	const n = 6 * streamSweepEvery
	frames := churnFrames(t, 0, n)
	ctx := &opCtx{outName: "feats", stream: &streamCtx{carry: make([]any, 1)}}
	p := params{"lambdas": []any{1.0}}
	var peak [3]int
	// One packet a call: a packet adds at most one stream per grouping
	// before the sweep it may trigger, so the live count after the
	// previous call plus one bounds every grouping's peak.
	for i := range frames {
		if _, err := opKitsuneFeatures(ctx, []Value{Packets{DS: &dataset.Labeled{}, Views: viewsOf(frames[i : i+1])}}, p); err != nil {
			t.Fatal(err)
		}
		car := ctx.stream.carry[0].(*kitsuneCarry)
		for g, live := range []int{len(car.srcs), len(car.chans), len(car.socks)} {
			peak[g] = max(peak[g], live+1)
		}
	}
	car := ctx.stream.carry[0].(*kitsuneCarry)
	for g, carved := range []int32{car.srcStat.carved, car.chanStat.carved, car.sockStat.carved} {
		if int(carved) > peak[g]+slabBlock {
			t.Errorf("grouping %d carved %d slots for a peak of %d live streams, want at most %d", g, carved, peak[g], peak[g]+slabBlock)
		}
		if peak[g] >= n/2 {
			t.Errorf("grouping %d peaked at %d live streams: the sweep kept too much for the test to show reuse", g, peak[g])
		}
	}
}

// TestKitsuneReusedSlotStartsAfresh: a stream swept away leaves its slots
// to the next new stream, whose first packet reads exactly as on a fresh
// carry. The swept stream is heavy enough — 12 000 packets at one
// instant, idle 65 s at λ = 1 — that its history, faded by 2^-65, still
// shows in a weight of 1 if the slot kept it.
func TestKitsuneReusedSlotStartsAfresh(t *testing.T) {
	at := func(src byte, sec int64) refFrame {
		return refFrame{link: netpkt.LinkEthernet, ts: time.Unix(sec, 0), raw: udpFrame(t, netip.AddrFrom4([4]byte{11, 0, 0, src}))}
	}
	const heavy = 12000
	var frames []refFrame
	for i := 0; i < streamSweepEvery; i++ {
		if i < heavy {
			frames = append(frames, at(1, 0))
		} else {
			frames = append(frames, at(2, 65)) // the sweep at the last one drops only source 1
		}
	}
	frames = append(frames, at(3, 65))
	p := params{"lambdas": []any{1.0}}
	m := obs.NewMetrics()
	got := kitsuneRun(t, frames, 512, p, m)
	if n := m.Counter("lumen_kitsune_streams_evicted_total", "").Value(); n != 3 {
		t.Fatalf("the sweep evicted %d streams, want source 1's three", n)
	}
	fresh := kitsuneRun(t, frames[len(frames)-1:], 0, p, nil)
	last := len(frames) - 1
	for j := range fresh {
		got[j] = got[j][last:]
	}
	sameBits(t, "first packet of a stream in reused slots", got, fresh)
}

// BenchmarkKitsuneFeatures prices the fold over P1's first 4 096 packets
// in 512-row chunks: cold, a fresh carry each time, so every stream is
// new; warm, one chunk again once all its streams exist.
func BenchmarkKitsuneFeatures(b *testing.B) {
	spec, _ := dataset.Get("P1")
	frames := datasetFrames(spec.Generate(2), 4096)
	if len(frames) < 4096 {
		b.Fatalf("P1 has only %d packets", len(frames))
	}
	views := viewsOf(frames)
	for i := range views {
		views[i].Predecode(netpkt.DecodeHint{Headers: true})
	}
	chunk := func(lo int) []Value {
		return []Value{Packets{DS: &dataset.Labeled{}, Views: views[lo:min(lo+512, len(views))]}}
	}
	newCtx := func() *opCtx { return &opCtx{outName: "feats", stream: &streamCtx{carry: make([]any, 1)}} }
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			ctx := newCtx()
			for lo := 0; lo < len(views); lo += 512 {
				if _, err := opKitsuneFeatures(ctx, chunk(lo), params{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ctx, in := newCtx(), chunk(0)
		if _, err := opKitsuneFeatures(ctx, in, params{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := opKitsuneFeatures(ctx, in, params{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestKitsuneLambdasRejected: unusable decay rates fail the type-check and
// the op itself, instead of yielding no columns or growing statistics.
func TestKitsuneLambdasRejected(t *testing.T) {
	for name, bad := range map[string]any{
		"empty":       []any{},
		"negative":    []any{0.1, -1.0},
		"non-numeric": []any{0.1, "fast"},
		"not a list":  0.1,
		"NaN":         []any{math.NaN()},
		"infinite":    []any{math.Inf(1)},
	} {
		p := kitsunePipeline()
		p.Ops[0].Params = map[string]any{"lambdas": bad}
		if err := NewEngine(p).Check(); err == nil || !strings.Contains(err.Error(), "kitsune_features: lambdas") {
			t.Errorf("%s: type-check returned %v, want a kitsune_features lambdas error", name, err)
		}
		if _, err := opKitsuneFeatures(chunkCtx(), []Value{Packets{DS: &dataset.Labeled{}}}, params{"lambdas": bad}); err == nil {
			t.Errorf("%s: the op accepted lambdas %v", name, bad)
		}
	}
	for name, good := range map[string]any{"unset": nil, "undamped": []any{0.0}, "ints": []any{1, 2}} {
		if _, err := kitsuneLambdas(params{"lambdas": good}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzKitsuneKeyEquivalence: for any two frames on either link type, each
// grouping's struct keys are equal exactly when the string keys the op
// used to build are — the key spaces (IP, MAC, five-tuple, no address)
// stay as disjoint, and as merged, as the strings made them.
func FuzzKitsuneKeyEquivalence(f *testing.F) {
	corpus := protocolCorpus(f)
	for i := 0; i < len(corpus); i += 13 {
		a, b := corpus[i], corpus[(i*7+3)%len(corpus)]
		f.Add(a.raw, b.raw, a.link == netpkt.LinkDot11, b.link == netpkt.LinkDot11)
	}
	for _, pair := range keyEdgePairs(f) {
		f.Add(pair[0].raw, pair[1].raw, pair[0].link == netpkt.LinkDot11, pair[1].link == netpkt.LinkDot11)
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, dot11A, dot11B bool) {
		link := func(dot11 bool) netpkt.LinkType {
			if dot11 {
				return netpkt.LinkDot11
			}
			return netpkt.LinkEthernet
		}
		views := viewsOf([]refFrame{{link: link(dot11A), raw: rawA}, {link: link(dot11B), raw: rawB}})
		var keys [2][3]kitsuneKey
		var strs [2][3]string
		for i := range views {
			keys[i][0], keys[i][1], keys[i][2] = kitsuneKeys(&views[i])
			strs[i][0], strs[i][1], strs[i][2] = refKitsuneKeys(views[i].Materialize())
		}
		for g, grouping := range []string{"source", "channel", "socket"} {
			if (keys[0][g] == keys[1][g]) != (strs[0][g] == strs[1][g]) {
				t.Fatalf("%s keys: structs %+v and %+v, strings %q and %q", grouping, keys[0][g], keys[1][g], strs[0][g], strs[1][g])
			}
		}
	})
}

// keyEdgePairs are the frame pairs whose keys sit on the edges of the
// key spaces: an IPv4 packet and an IPv6 one from the IPv4-mapped form
// of its address (different sources), an ARP frame and an IPv4 packet
// from one address (one source; the ARP frame has no tuple, so its
// socket is its channel), Ethernet and 802.11 frames from one MAC (one
// source and channel), and an ICMP packet, whose tuple has no ports,
// beside a TCP packet between the same hosts (one channel, different
// sockets).
func keyEdgePairs(t testing.TB) [][2]refFrame {
	t.Helper()
	host := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	peer := netip.AddrFrom4([4]byte{10, 0, 0, 2})
	from, to := netpkt.MAC{2, 0, 0, 0, 0, 1}, netpkt.MAC{2, 0, 0, 0, 0, 2}
	eth := &netpkt.Ethernet{Dst: to, Src: from}
	ipv4 := func(proto uint8) *netpkt.IPv4 {
		return &netpkt.IPv4{TTL: 64, Protocol: proto, Src: host, Dst: peer}
	}
	frame := func(p *netpkt.Packet) refFrame {
		raw, err := p.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		return refFrame{link: p.Link, raw: raw}
	}
	udp4 := frame(&netpkt.Packet{Eth: eth, IPv4: ipv4(netpkt.ProtoUDP), UDP: &netpkt.UDP{SrcPort: 4000, DstPort: 5000}})
	// An Ethernet frame of a local experimental EtherType: MACs only.
	bare := refFrame{link: netpkt.LinkEthernet, raw: append(append([]byte(nil), udp4.raw[:12]...), 0x88, 0xb5, 'l', 'o', 'c', 'a', 'l')}
	return [][2]refFrame{
		{udp4, frame(&netpkt.Packet{Eth: eth,
			IPv6: &netpkt.IPv6{NextHeader: netpkt.ProtoUDP, HopLimit: 64, Src: netip.AddrFrom16(host.As16()), Dst: netip.AddrFrom16(peer.As16())},
			UDP:  &netpkt.UDP{SrcPort: 4000, DstPort: 5000}})},
		{frame(&netpkt.Packet{Eth: eth, ARP: &netpkt.ARP{Op: 1, SenderHW: from, SenderIP: host, TargetIP: peer}}), udp4},
		{bare, frame(&netpkt.Packet{Dot11: &netpkt.Dot11{Subtype: netpkt.Dot11Data, Addr1: to, Addr2: from}})},
		{frame(&netpkt.Packet{Eth: eth, IPv4: ipv4(netpkt.ProtoICMP), ICMP: &netpkt.ICMP{Type: 8}}),
			frame(&netpkt.Packet{Eth: eth, IPv4: ipv4(netpkt.ProtoTCP), TCP: &netpkt.TCP{SrcPort: 41000, DstPort: 80, Flags: netpkt.FlagSYN}})},
	}
}
