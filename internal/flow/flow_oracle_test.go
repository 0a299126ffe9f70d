package flow

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

// decoded parses every packet of a dataset from its wire bytes.
func decoded(ds *dataset.Labeled) []*netpkt.Packet {
	out := make([]*netpkt.Packet, len(ds.Packets))
	for i, p := range ds.Packets {
		out[i] = netpkt.Decode(p.Data, ds.Link, p.Ts)
	}
	return out
}

// The references below are the code the list-ordered sweep, the
// slices.SortFunc ordering and the append encoder replaced, kept so the
// tests can hold the replacements to them bit for bit.

// refConnLogLine is the fmt conn-log row.
func refConnLogLine(i int, c *Flow) string {
	return fmt.Sprintf("%.6f\tC%08d\t%s\t%d\t%s\t%d\t%s\t%.6f\t%d\t%d\t%s\t%d\t%d\n",
		float64(c.First.UnixNano())/1e9,
		i,
		c.Tuple.SrcIP, c.Tuple.SrcPort,
		c.Tuple.DstIP, c.Tuple.DstPort,
		refProtoString(c.Tuple.Proto),
		c.Duration().Seconds(),
		c.OrigBytes, c.RespBytes,
		c.State,
		c.OrigPkts, c.RespPkts,
	)
}

func refProtoString(p uint8) string {
	switch p {
	case netpkt.ProtoTCP:
		return "tcp"
	case netpkt.ProtoUDP:
		return "udp"
	case netpkt.ProtoICMP:
		return "icmp"
	default:
		return fmt.Sprintf("proto-%d", p)
	}
}

func refSortUniflows(us []*Flow) {
	sort.Slice(us, func(a, b int) bool {
		if !us[a].First.Equal(us[b].First) {
			return us[a].First.Before(us[b].First)
		}
		return us[a].Tuple.String() < us[b].Tuple.String()
	})
}

func refSortConnections(cs []*Flow) {
	sort.Slice(cs, func(a, b int) bool {
		if !cs[a].First.Equal(cs[b].First) {
			return cs[a].First.Before(cs[b].First)
		}
		return cs[a].Tuple.String() < cs[b].Tuple.String()
	})
}

// refAssembler is what the tests drive of a reference assembler.
type refAssembler interface {
	feed(s netpkt.PacketSummary) []*Flow
	flush() []*Flow
	open() int
}

// refUniAssembler is the uniflow assembler whose sweep scans the whole
// table.
type refUniAssembler struct {
	idle      time.Duration
	active    map[netpkt.FiveTuple]*Flow
	lastSweep time.Time
	started   bool
}

func (a *refUniAssembler) feed(s netpkt.PacketSummary) []*Flow {
	var out []*Flow
	if !a.started {
		a.started = true
		a.lastSweep = s.Ts
	} else if s.Ts.Sub(a.lastSweep) > a.idle {
		for ft, f := range a.active {
			if s.Ts.Sub(f.Last) > a.idle {
				out = append(out, f)
				delete(a.active, ft)
			}
		}
		refSortUniflows(out)
		a.lastSweep = s.Ts
	}
	if !s.HasTuple {
		return out
	}
	f := a.active[s.Tuple]
	if f != nil && s.Ts.Sub(f.Last) > a.idle {
		out = append(out, f)
		f = nil
	}
	if f == nil {
		f = &Flow{Tuple: s.Tuple, First: s.Ts}
		a.active[s.Tuple] = f
	}
	f.OrigPkts++
	f.Stats = append(f.Stats, StatOf(&s))
	f.Last = s.Ts
	f.OrigBytes += s.Wire
	f.OrigPayload += s.PayloadLen
	return out
}

func (a *refUniAssembler) flush() []*Flow {
	var out []*Flow
	for _, f := range a.active {
		out = append(out, f)
	}
	refSortUniflows(out)
	return out
}

func (a *refUniAssembler) open() int { return len(a.active) }

// refConnAssembler is the connection assembler whose sweep scans the
// whole table.
type refConnAssembler struct {
	idle      time.Duration
	active    map[netpkt.FiveTuple]*Flow
	lastSweep time.Time
	started   bool
}

func (a *refConnAssembler) feed(s netpkt.PacketSummary) []*Flow {
	var out []*Flow
	if !a.started {
		a.started = true
		a.lastSweep = s.Ts
	} else if s.Ts.Sub(a.lastSweep) > a.idle {
		for key, c := range a.active {
			if s.Ts.Sub(c.Last) > a.idle {
				c.finalize()
				out = append(out, c)
				delete(a.active, key)
			}
		}
		refSortConnections(out)
		a.lastSweep = s.Ts
	}
	if !s.HasTuple {
		return out
	}
	key := s.Tuple.Canonical()
	c := a.active[key]
	if c != nil && s.Ts.Sub(c.Last) > a.idle {
		c.finalize()
		out = append(out, c)
		c = nil
	}
	if c == nil {
		c = &Flow{Tuple: s.Tuple, First: s.Ts}
		a.active[key] = c
	}
	c.add(&s)
	c.Stats = append(c.Stats, StatOf(&s))
	return out
}

func (a *refConnAssembler) flush() []*Flow {
	var out []*Flow
	for _, c := range a.active {
		c.finalize()
		out = append(out, c)
	}
	refSortConnections(out)
	return out
}

func (a *refConnAssembler) open() int { return len(a.active) }

// keyed is one assembler key with its reference, for tests that drive
// both over one stream.
type keyed struct {
	name string
	a    *Assembler
	ref  refAssembler
	uni  bool
}

// bothKeys returns a fresh uniflow and connection assembler, each with
// its reference.
func bothKeys(opts Options) []keyed {
	return []keyed{
		{"uniflow", NewUniflowAssembler(opts), &refUniAssembler{idle: opts.idle(), active: map[netpkt.FiveTuple]*Flow{}}, true},
		{"connection", NewConnAssembler(opts), &refConnAssembler{idle: opts.idle(), active: map[netpkt.FiveTuple]*Flow{}}, false},
	}
}

// sameFlows compares what a flow exports: counts, conn state, member
// stats in arrival order, and order. (The references do not seed stats
// from the inline array, so the unexported fields differ by design.) A
// uniflow (uni) must also have no responder side and no state.
func sameFlows(t *testing.T, at string, got, want []*Flow, uni bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d flows, reference has %d", at, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Tuple != w.Tuple || !g.First.Equal(w.First) || !g.Last.Equal(w.Last) || g.State != w.State ||
			g.OrigBytes != w.OrigBytes || g.RespBytes != w.RespBytes ||
			g.OrigPayload != w.OrigPayload || g.RespPayload != w.RespPayload ||
			g.OrigPkts != w.OrigPkts || g.RespPkts != w.RespPkts || !reflect.DeepEqual(g.Stats, w.Stats) {
			t.Fatalf("%s: flow %d is %v %d/%d %s, reference %v %d/%d %s", at, k,
				g.Tuple, g.OrigPkts, g.RespPkts, g.State, w.Tuple, w.OrigPkts, w.RespPkts, w.State)
		}
		if uni && (g.RespPkts != 0 || g.RespBytes != 0 || g.RespPayload != 0 || g.State != "") {
			t.Fatalf("%s: uniflow %d has a responder side or a state: %d/%d/%d %q", at, k, g.RespPkts, g.RespBytes, g.RespPayload, g.State)
		}
		if g.prev != nil || g.next != nil {
			t.Fatalf("%s: emitted flow %d is still on the idle list", at, k)
		}
	}
}

// randomStream builds a time-ordered summary stream over a small pool of
// endpoints, so tuples recur in both directions. Its gaps include zero
// (first packets of different tuples at one instant), exactly the idle
// timeout (which must not split or evict: both tests are strict), and
// jumps past it; some packets carry no tuple.
func randomStream(rng *rand.Rand, n int, idle time.Duration) []netpkt.PacketSummary {
	hosts := make([]netip.Addr, 6)
	for i := range hosts {
		hosts[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	hosts[5] = netip.MustParseAddr("fe80::1")
	gaps := []time.Duration{0, 0, time.Millisecond, 700 * time.Millisecond, idle / 3, idle, idle + 1, 2 * idle, 5 * idle}
	ts := time.Unix(1_600_000_000, 0)
	out := make([]netpkt.PacketSummary, n)
	for i := range out {
		ts = ts.Add(gaps[rng.Intn(len(gaps))])
		s := netpkt.PacketSummary{Ts: ts, Wire: 60 + rng.Intn(1400), PayloadLen: rng.Intn(1000)}
		if rng.Intn(12) != 0 {
			s.HasTuple = true
			s.Tuple = netpkt.FiveTuple{
				SrcIP: hosts[rng.Intn(len(hosts))], DstIP: hosts[rng.Intn(len(hosts))],
				SrcPort: uint16(1000 + rng.Intn(4)), DstPort: uint16(1000 + rng.Intn(4)),
				Proto: []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP}[rng.Intn(2)],
			}
			if s.Tuple.Proto == netpkt.ProtoTCP {
				s.HasTCP, s.TCPFlags = true, uint8(rng.Intn(64))
			}
		}
		out[i] = s
	}
	return out
}

// TestSweepMatchesTableScan: on time-ordered streams the list-ordered
// sweep evicts, packet by packet, exactly the batches the whole-table
// scan does (Feed returns them unordered, so both are compared in
// canonical order), and flushes the same remainder.
func TestSweepMatchesTableScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		idle := []time.Duration{64 * time.Second, 3 * time.Second}[seed%2]
		stream := randomStream(rand.New(rand.NewSource(seed)), 1500, idle)
		opts := Options{IdleTimeout: idle}

		keys := bothKeys(opts)
		var slab StatSlab
		evicted := make([]int, len(keys))
		for i := range stream {
			s := &stream[i]
			for j, k := range keys {
				at := fmt.Sprintf("seed %d packet %d %s", seed, i, k.name)
				got := append([]*Flow(nil), k.a.Feed(s)...)
				Sort(got)
				if s.HasTuple {
					// Attach the stat as a stats-keeping caller does.
					k.a.Newest().AddStat(StatOf(s), &slab)
				}
				sameFlows(t, at, got, k.ref.feed(*s), k.uni)
				evicted[j] += len(got)
				if k.a.Open() != k.ref.open() {
					t.Fatalf("%s: %d open, reference %d", at, k.a.Open(), k.ref.open())
				}
			}
		}
		for j, k := range keys {
			if evicted[j] == 0 {
				t.Fatalf("seed %d: no %s was evicted mid-stream", seed, k.name)
			}
			sameFlows(t, "flush "+k.name, k.a.Flush(), k.ref.flush(), k.uni)
			if k.a.Open() != 0 {
				t.Fatalf("seed %d: %ss open after Flush", seed, k.name)
			}
		}
	}
}

// TestSortMatchesReference: slices.SortFunc on Time.Compare orders as
// the Equal/Before comparator did, ties on the first instant included.
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := randomStream(rng, 3000, time.Second)
	a := NewConnAssembler(Options{IdleTimeout: time.Second})
	var conns []*Flow
	for i := range stream {
		conns = append(conns, a.Feed(&stream[i])...)
	}
	conns = append(conns, a.Flush()...)
	rng.Shuffle(len(conns), func(i, j int) { conns[i], conns[j] = conns[j], conns[i] })
	want := append([]*Flow{}, conns...)
	refSortConnections(want)
	Sort(conns)
	ties := 0
	for k := range want {
		if conns[k] != want[k] {
			t.Fatalf("position %d differs from the reference order", k)
		}
		if k > 0 && want[k].First.Equal(want[k-1].First) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("stream had no connections starting at the same instant")
	}
}

// TestConnLogMatchesFmt: the whole log equals header + fmt rows on every
// flow-granularity registry dataset.
func TestConnLogMatchesFmt(t *testing.T) {
	for _, spec := range dataset.Registry() {
		if spec.Granularity == dataset.Packet {
			continue
		}
		conns := Connections(decoded(spec.Generate(0.05)), Options{})
		var got, want bytes.Buffer
		if err := WriteConnLog(&got, conns); err != nil {
			t.Fatal(err)
		}
		want.WriteString(connLogHeader)
		for i, c := range conns {
			want.WriteString(refConnLogLine(i, c))
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: conn-log differs from the fmt reference", spec.ID)
		}
	}
}

// TestAppendFixed6MatchesStrconv: the integer path prints what strconv's
// decimal does, on the values a log holds (epoch seconds, durations from
// nanoseconds up), exact ties, every binary exponent, and whatever falls
// back.
func TestAppendFixed6MatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := string(appendFixed6(nil, v)), strconv.FormatFloat(v, 'f', 6, 64); got != want {
			t.Fatalf("%b (%g): got %s, want %s", v, v, got, want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5e-6, 1e-6, 1.5e-6, 2.5e-6, 1.0 / 128, 3.0 / 128, 0.9999995, 0.99999949,
		1 << 52, 1<<52 - 0.5, 1 << 62, 9.2e12, 9.3e12, 1.8e13, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		check(v)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		ns := rng.Int63n(4e18)
		check(float64(ns) / 1e9)                                                       // conn-log ts
		check(time.Duration(ns >> uint(rng.Intn(63))).Seconds())                       // durations of every magnitude
		check(math.Float64frombits(rng.Uint64()))                                      // every sign and exponent
		check(float64(rng.Int63n(1<<40)*2+1) / float64(uint64(1)<<uint(rng.Intn(60)))) // odd/2^k: ties when k is 7 past a multiple of 5^6
	}
	for n := uint64(1); n < 4096; n++ { // exact ties: odd multiples of 5^6 over 2^7
		check(float64((2*n+1)*15625) / 128)
		check(float64((2*n+1)*15625) / 128 / 1e6)
	}
}

// FuzzConnLogLine holds the append encoder to the fmt row it replaced on
// arbitrary connections: IPv4, IPv6, zoned, IPv4-mapped and invalid
// addresses, unknown protocols, negative and huge durations, indices
// past the uid's eight digits.
func FuzzConnLogLine(f *testing.F) {
	f.Add([]byte{10, 0, 0, 1}, []byte{10, 0, 0, 2}, "", uint16(1234), uint16(80), uint8(6), int64(1_600_000_000_123_456_789), int64(1_500_000), uint32(0), 10, 20, "SF")
	f.Add(bytes.Repeat([]byte{0xfe}, 16), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 1, 2, 3, 4}, "eth0", uint16(0), uint16(65535), uint8(200), int64(-5), int64(-3_000_000_001), uint32(100_000_000), -1, 1<<40, "OTH")
	f.Add([]byte{1}, []byte{}, "z", uint16(1), uint16(2), uint8(17), int64(1<<62), int64(1<<62), uint32(4_000_000_000), 0, 0, "")
	f.Fuzz(func(t *testing.T, src, dst []byte, zone string, sport, dport uint16, proto uint8, first, dur int64, idx uint32, ob, rb int, state string) {
		addr := func(b []byte) netip.Addr {
			a, _ := netip.AddrFromSlice(b)
			if a.Is6() {
				a = a.WithZone(zone)
			}
			return a
		}
		c := &Flow{
			Tuple:     netpkt.FiveTuple{SrcIP: addr(src), DstIP: addr(dst), SrcPort: sport, DstPort: dport, Proto: proto},
			First:     time.Unix(0, first),
			OrigBytes: ob, RespBytes: rb,
			State:    ConnState(state),
			OrigPkts: len(src), RespPkts: len(dst),
		}
		c.Last = c.First.Add(time.Duration(dur))
		if got, want := string(appendConnLogLine(nil, int(idx), c)), refConnLogLine(int(idx), c); got != want {
			t.Fatalf("append encoder wrote %q, fmt %q", got, want)
		}
	})
}

// TestWriteConnLogAllocs: a call allocates its writer and one line
// buffer, however many connections it renders.
func TestWriteConnLogAllocs(t *testing.T) {
	f1, _ := dataset.Get("F1")
	conns := Connections(decoded(f1.Generate(0.5)), Options{})
	if len(conns) < 100 {
		t.Fatalf("only %d connections", len(conns))
	}
	per := func(cs []*Flow) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := WriteConnLog(io.Discard, cs); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, all := per(conns[:1]), per(conns)
	if all != one || all > 3 {
		t.Fatalf("WriteConnLog allocates %.0f times for %d connections, %.0f for one", all, len(conns), one)
	}
}

// benchSummaries is the F1 trace as the summaries a stream feeds the
// assembler.
func benchSummaries(b *testing.B) []netpkt.PacketSummary {
	f1, _ := dataset.Get("F1")
	pkts := decoded(f1.Generate(10))
	sums := make([]netpkt.PacketSummary, len(pkts))
	for i, p := range pkts {
		sums[i] = p.Summary()
	}
	b.ReportAllocs()
	b.ResetTimer()
	return sums
}

// BenchmarkAssembler prices assembly per packet under each key: feed,
// mid-stream eviction, flush. Its release sub-benchmarks drive a
// connection assembler as a pass that scores closed flows does: Release
// every chunkCut packets and ReleaseAll at the end, with each batch
// handed back (Recycle) or dropped. A 1 s idle timeout closes most of
// the trace's connections mid-stream, as a long capture's do.
func BenchmarkAssembler(b *testing.B) {
	for _, key := range []struct {
		name string
		new  func(Options) *Assembler
	}{{"uniflow", NewUniflowAssembler}, {"connection", NewConnAssembler}} {
		b.Run(key.name, func(b *testing.B) {
			sums := benchSummaries(b)
			var flows int
			for n := 0; n < b.N; n++ {
				a := key.new(Options{})
				flows = 0
				for i := range sums {
					flows += len(a.Feed(&sums[i]))
				}
				flows += len(a.Flush())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sums)), "ns/pkt")
			b.ReportMetric(float64(flows), "flows")
		})
	}
	const chunkCut = 512
	for _, recycle := range []bool{false, true} {
		name := "connection_release"
		if recycle {
			name = "connection_recycle"
		}
		b.Run(name, func(b *testing.B) {
			sums := benchSummaries(b)
			var cut []*Flow
			var flows int
			for n := 0; n < b.N; n++ {
				a := NewConnAssembler(Options{IdleTimeout: time.Second})
				flows = 0
				for i := range sums {
					a.Feed(&sums[i])
					if (i+1)%chunkCut != 0 && i+1 < len(sums) {
						continue
					}
					if cut = a.Release(cut[:0]); i+1 == len(sums) {
						cut = a.ReleaseAll(cut)
					}
					flows += len(cut)
					if recycle {
						a.Recycle(cut)
					}
					clear(cut)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sums)), "ns/pkt")
			b.ReportMetric(float64(flows), "flows")
		})
	}
}

// BenchmarkWriteConnLog prices the conn-log per connection, the global
// sort included (the daemon sorts once before it writes).
func BenchmarkWriteConnLog(b *testing.B) {
	sums := benchSummaries(b)
	a := NewConnAssembler(Options{IdleTimeout: time.Second})
	var conns []*Flow
	for i := range sums {
		conns = append(conns, a.Feed(&sums[i])...)
	}
	conns = append(conns, a.Flush()...)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		Sort(conns)
		if err := WriteConnLog(io.Discard, conns); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(conns)), "ns/conn")
}
