package core

import (
	"encoding/binary"
	"math"
	"net/netip"
	"runtime"
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
	ctx := &opCtx{outName: "feats", metrics: m, stream: &streamCtx{carry: map[string]any{}}}
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
	ctx := &opCtx{outName: "feats", stream: &streamCtx{carry: map[string]any{}}}
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
	ctx := &opCtx{outName: "feats", stream: &streamCtx{carry: map[string]any{}}}
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
	if large > 16 {
		t.Errorf("a warm 512-row chunk allocates %v times, want at most 16 (the frame, its name index and metadata, one column block)", large)
	}
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
