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
	// Stats are the member packets' stats in arrival order, when the
	// caller attaches them (AddStat); assembly alone only counts.
	Stats []PacketStat
	// Label is the caller's annotation of the flow, 0 unless it sets one.
	Label uint32

	// prev and next thread the flow on its assembler's idle list while it
	// is open (nil once emitted); stat0 is Stats' first backing array, so
	// a short flow is one allocation.
	prev, next *Uniflow
	stat0      [InlineStats]PacketStat
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

// InlineStats is how many member stats a flow holds in its own
// allocation; a longer flow's stats move to a slice of their own.
const InlineStats = 4

// spillStats is the capacity a flow's stats get when they outgrow the
// inline array: room for the common eight-packet session and most of
// what is longer in one allocation, where doubling from the inline four
// would take one per octave.
const spillStats = 4 * InlineStats

// appendStat appends s to a flow's stats, starting them in the flow's
// inline array and moving them to one of spillStats when it is full.
func appendStat(stats []PacketStat, inline *[InlineStats]PacketStat, s PacketStat) []PacketStat {
	switch {
	case stats == nil:
		stats = inline[:0]
	case cap(stats) == InlineStats && len(stats) == InlineStats:
		stats = append(make([]PacketStat, 0, spillStats), stats...)
	}
	return append(stats, s)
}

// AddStat appends the stat of the flow's newest member packet.
func (u *Uniflow) AddStat(s PacketStat) { u.Stats = appendStat(u.Stats, &u.stat0, s) }

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
	// order, when the caller attaches them (AddStat); assembly alone only
	// counts.
	Stats []PacketStat
	// Label is the caller's annotation of the connection, 0 unless it sets
	// one.
	Label uint32

	sawSYN, sawSYNACK, sawOrigFIN, sawRespFIN bool
	sawOrigRST, sawRespRST                    bool

	// prev and next thread the connection on its assembler's idle list
	// while it is open (nil once emitted); stat0 is Stats' first backing
	// array, so a short connection is one allocation.
	prev, next *Connection
	stat0      [InlineStats]PacketStat
}

// Duration returns Last-First.
func (c *Connection) Duration() time.Duration { return c.Last.Sub(c.First) }

// AddStat appends the stat of the connection's newest member packet.
func (c *Connection) AddStat(s PacketStat) { c.Stats = appendStat(c.Stats, &c.stat0, s) }

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
	var done []*Uniflow
	for _, p := range pkts {
		done = append(done, a.Add(p)...)
	}
	done = append(done, a.Flush()...)
	SortUniflows(done)
	return done
}

// Connections groups packets into bidirectional connections with
// Zeek-style state tracking. It is the batch driver of ConnAssembler.
func Connections(pkts []*netpkt.Packet, opts Options) []*Connection {
	a := NewConnAssembler(opts)
	var done []*Connection
	for _, p := range pkts {
		done = append(done, a.Add(p)...)
	}
	done = append(done, a.Flush()...)
	SortConnections(done)
	return done
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
