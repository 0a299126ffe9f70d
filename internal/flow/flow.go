// Package flow assembles packet streams into unidirectional flows and
// bidirectional connections — the role Zeek's flow extraction plays in the
// original Lumen (the paper splits every pcap into Zeek flows before
// labelling). Flows are keyed by five-tuple, split on idle timeouts, and
// connections carry Zeek-style state summaries (S0/SF/REJ/RSTO/OTH).
package flow

import (
	"time"

	"lumen/internal/netpkt"
)

// Uniflow is a set of same-direction packets sharing a five-tuple, within
// one timeout-delimited episode.
type Uniflow struct {
	Tuple   netpkt.FiveTuple
	First   time.Time
	Last    time.Time
	Pkts    int // member packets
	Bytes   int
	Payload int // application payload bytes
	// Stats are the member packets' stats in arrival order, as many as
	// the caller attaches (AddStat); assembly alone only counts.
	Stats []PacketStat
	// Label is the caller's annotation of the flow, 0 unless it sets one.
	Label uint32

	// prev and next thread the flow on its assembler's idle list while it
	// is open (nil once emitted).
	prev, next *Uniflow
}

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

// AddStat appends the stat of the flow's newest member packet, carving
// the flow's first stat array from sl.
func (u *Uniflow) AddStat(s PacketStat, sl *StatSlab) { u.Stats = appendStat(u.Stats, sl, s) }

// Duration returns Last-First.
func (u *Uniflow) Duration() time.Duration { return u.Last.Sub(u.First) }

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

// Connection is a bidirectional flow: the originator direction is the one
// whose packet appeared first.
type Connection struct {
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
	// Label is the caller's annotation of the connection, 0 unless it sets
	// one.
	Label uint32

	sawSYN, sawSYNACK, sawOrigFIN, sawRespFIN bool
	sawOrigRST, sawRespRST                    bool

	// prev and next thread the connection on its assembler's idle list
	// while it is open (nil once emitted).
	prev, next *Connection
}

// Duration returns Last-First.
func (c *Connection) Duration() time.Duration { return c.Last.Sub(c.First) }

// AddStat appends the stat of the connection's newest member packet; see
// Uniflow.AddStat.
func (c *Connection) AddStat(s PacketStat, sl *StatSlab) { c.Stats = appendStat(c.Stats, sl, s) }

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

// Uniflows groups packets into unidirectional flows. Packets without a
// five-tuple (ARP, 802.11 management) are skipped. Input packets must be
// in non-decreasing time order (captures are). It is the batch driver of
// UniflowAssembler, so batch and incremental assembly cannot diverge.
func Uniflows(pkts []*netpkt.Packet, opts Options) []*Uniflow {
	a := NewUniflowAssembler(opts)
	for _, p := range pkts {
		a.Add(p)
	}
	return a.ReleaseAll(nil)
}

// Connections groups packets into bidirectional connections with
// Zeek-style state tracking. It is the batch driver of ConnAssembler.
func Connections(pkts []*netpkt.Packet, opts Options) []*Connection {
	a := NewConnAssembler(opts)
	for _, p := range pkts {
		a.Add(p)
	}
	return a.ReleaseAll(nil)
}

// finalize assigns the Zeek-style connection state.
func (c *Connection) finalize() {
	switch {
	case c.Tuple.Proto != netpkt.ProtoTCP:
		c.State = StateOTH
	case c.sawSYN && c.sawRespRST && !c.sawSYNACK:
		c.State = StateREJ
	case c.sawSYN && !c.sawSYNACK:
		c.State = StateS0
	case c.sawSYN && c.sawSYNACK && c.sawOrigFIN && c.sawRespFIN:
		c.State = StateSF
	case c.sawSYN && c.sawSYNACK && c.sawOrigRST:
		c.State = StateRSTO
	case c.sawSYN && c.sawSYNACK && c.sawRespRST:
		c.State = StateRSTR
	case c.sawSYN && c.sawSYNACK:
		c.State = StateS1
	default:
		c.State = StateOTH
	}
}
