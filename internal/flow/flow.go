// Package flow assembles packet streams into flows — the role Zeek's
// flow extraction plays in the original Lumen (the paper splits every
// pcap into Zeek flows before labelling). One Flow type serves both
// granularities: keyed by the directed five-tuple it is a unidirectional
// flow, by the canonical one a bidirectional connection, which carries a
// Zeek-style state summary (S0/SF/REJ/RSTO/OTH). Flows split on idle
// timeouts.
package flow

import (
	"time"

	"lumen/internal/netpkt"
)

// PacketStat is what flow features read of one member packet. It is 16
// bytes and holds no pointer, so the stats a flow keeps are never scanned
// by the collector.
type PacketStat struct {
	UnixNano int64
	Wire     int32
	Flags    uint8 // TCP flag bits, when HasTCP
	HasTCP   bool
}

// StatOf projects a packet summary to its stat.
func StatOf(s *netpkt.PacketSummary) PacketStat {
	return PacketStat{UnixNano: s.Ts.UnixNano(), Wire: int32(s.Wire), Flags: s.TCPFlags, HasTCP: s.HasTCP}
}

// InlineStats is how many member stats a flow's first stat array holds;
// a longer flow's stats move to a slice of their own.
const InlineStats = 4

// spillStats is the capacity a flow's stats get when they outgrow the
// first array: room for the common eight-packet session and most of
// what is longer in one allocation, where doubling from four would take
// one per octave.
const spillStats = 4 * InlineStats

// slabStats is how many stats a StatSlab block holds: the first arrays
// of 64 flows.
const slabStats = 64 * InlineStats

// StatSlab carves the first stat arrays of many flows, InlineStats
// stats each, from shared blocks, so starting a flow's stats costs a
// fraction of an allocation. A block lives as long as any flow it
// started, which suits a caller that keeps its flows until it drops them
// all. The zero value is ready to use.
type StatSlab struct{ free []PacketStat }

// appendStat appends s to a flow's stats, starting them in an array
// carved from sl and moving them to one of spillStats when it is full.
func appendStat(stats []PacketStat, sl *StatSlab, s PacketStat) []PacketStat {
	switch {
	case stats == nil:
		if len(sl.free) == 0 {
			sl.free = make([]PacketStat, slabStats)
		}
		stats, sl.free = sl.free[:0:InlineStats], sl.free[InlineStats:]
	case cap(stats) == InlineStats && len(stats) == InlineStats:
		stats = append(make([]PacketStat, 0, spillStats), stats...)
	}
	return append(stats, s)
}

// ConnState summarizes a TCP connection lifecycle, following Zeek's
// conn_state vocabulary.
type ConnState string

// Connection states.
const (
	StateS0   ConnState = "S0"   // SYN seen, no reply
	StateS1   ConnState = "S1"   // handshake complete, not closed
	StateSF   ConnState = "SF"   // normal establish + close
	StateREJ  ConnState = "REJ"  // SYN answered by RST
	StateRSTO ConnState = "RSTO" // established, originator aborted
	StateRSTR ConnState = "RSTR" // established, responder aborted
	StateOTH  ConnState = "OTH"  // midstream or non-TCP
)

// Flow is one timeout-delimited episode of packets sharing an
// assembler's key, with Zeek conn.log's orig/resp split. Under the
// bidirectional key (NewConnAssembler) it is a connection: the
// originator direction is the one whose packet appeared first, and
// State is assigned when it closes. Under the directed key
// (NewUniflowAssembler) it is a uniflow: every packet counts on the orig
// side, the resp counters stay 0 and State stays "".
type Flow struct {
	// Tuple is oriented originator → responder.
	Tuple netpkt.FiveTuple
	First time.Time
	Last  time.Time
	// OrigPkts and RespPkts count packets per direction.
	OrigPkts, RespPkts int
	// OrigBytes and RespBytes are wire bytes per direction.
	OrigBytes, RespBytes int
	// OrigPayload and RespPayload are application bytes per direction.
	OrigPayload, RespPayload int
	State                    ConnState
	// Stats are the member packets' stats of both directions in arrival
	// order, as many as the caller attaches (AddStat); assembly alone only
	// counts.
	Stats []PacketStat
	// Label is the caller's annotation of the flow, 0 unless it sets one.
	Label uint32

	sawSYN, sawSYNACK, sawOrigFIN, sawRespFIN bool
	sawOrigRST, sawRespRST                    bool

	// prev and next thread the flow on its assembler's idle list while it
	// is open (nil once it has closed).
	prev, next *Flow
}

// Connection is Flow under its old name, kept for bench/harness.
type Connection = Flow

// Duration returns Last-First.
func (f *Flow) Duration() time.Duration { return f.Last.Sub(f.First) }

// AddStat appends the stat of the flow's newest member packet, carving
// the flow's first stat array from sl.
func (f *Flow) AddStat(s PacketStat, sl *StatSlab) { f.Stats = appendStat(f.Stats, sl, s) }

// Options configures assembly.
type Options struct {
	// IdleTimeout splits a flow when the gap between packets exceeds it;
	// 0 means 64s (Zeek's default inactivity interval for TCP is of this
	// order).
	IdleTimeout time.Duration
}

func (o Options) idle() time.Duration {
	if o.IdleTimeout == 0 {
		return 64 * time.Second
	}
	return o.IdleTimeout
}

// Connections groups packets into bidirectional connections with
// Zeek-style state tracking. Packets without a five-tuple (ARP, 802.11
// management) are skipped. Input packets must be in non-decreasing time
// order (captures are). It is a batch driver of the Assembler, so batch
// and incremental assembly cannot diverge. bench/harness calls it for its
// reference conn-log.
func Connections(pkts []*netpkt.Packet, opts Options) []*Flow {
	return assemble(NewConnAssembler(opts), pkts)
}

func assemble(a *Assembler, pkts []*netpkt.Packet) []*Flow {
	for _, p := range pkts {
		a.Add(p)
	}
	return a.ReleaseAll(nil)
}

// finalize assigns the Zeek-style connection state.
func (f *Flow) finalize() {
	switch {
	case f.Tuple.Proto != netpkt.ProtoTCP:
		f.State = StateOTH
	case f.sawSYN && f.sawRespRST && !f.sawSYNACK:
		f.State = StateREJ
	case f.sawSYN && !f.sawSYNACK:
		f.State = StateS0
	case f.sawSYN && f.sawSYNACK && f.sawOrigFIN && f.sawRespFIN:
		f.State = StateSF
	case f.sawSYN && f.sawSYNACK && f.sawOrigRST:
		f.State = StateRSTO
	case f.sawSYN && f.sawSYNACK && f.sawRespRST:
		f.State = StateRSTR
	case f.sawSYN && f.sawSYNACK:
		f.State = StateS1
	default:
		f.State = StateOTH
	}
}
