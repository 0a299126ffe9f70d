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
	Tuple netpkt.FiveTuple
	// PacketIdx indexes into the packet slice given to Assemble, in time
	// order. Keeping indices (not copies) lets label propagation work in
	// both directions.
	PacketIdx []int
	First     time.Time
	Last      time.Time
	Bytes     int
	Payload   int // application payload bytes

	// prev and next thread the flow on its assembler's idle list while it
	// is open (nil once emitted); idx0 is PacketIdx's first backing
	// array, so a short flow is one allocation.
	prev, next *Uniflow
	idx0       [4]int
}

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
	// OrigIdx and RespIdx index packets of each direction, in time order.
	OrigIdx []int
	RespIdx []int
	First   time.Time
	Last    time.Time
	// OrigBytes and RespBytes are wire bytes per direction.
	OrigBytes, RespBytes int
	// OrigPayload and RespPayload are application bytes per direction.
	OrigPayload, RespPayload int
	State                    ConnState

	sawSYN, sawSYNACK, sawOrigFIN, sawRespFIN bool
	sawOrigRST, sawRespRST                    bool

	// prev and next thread the connection on its assembler's idle list
	// while it is open (nil once emitted); idx0 is the first backing
	// array of OrigIdx (front half) and RespIdx (back half), so a short
	// connection is one allocation.
	prev, next *Connection
	idx0       [2 * connInlineIdx]int
}

// connInlineIdx is how many packet indices per direction a connection
// holds before its index lists move to their own allocations.
const connInlineIdx = 4

// Duration returns Last-First.
func (c *Connection) Duration() time.Duration { return c.Last.Sub(c.First) }

// Packets returns all packet indices of the connection in time order.
func (c *Connection) Packets() []int {
	return c.AppendPackets(make([]int, 0, len(c.OrigIdx)+len(c.RespIdx)))
}

// AppendPackets appends all packet indices of the connection, in time
// order, to dst: a linear merge of the two per-direction lists, each of
// which is already ascending.
func (c *Connection) AppendPackets(dst []int) []int {
	o, r := c.OrigIdx, c.RespIdx
	for len(o) > 0 && len(r) > 0 {
		if o[0] < r[0] {
			dst, o = append(dst, o[0]), o[1:]
		} else {
			dst, r = append(dst, r[0]), r[1:]
		}
	}
	return append(append(dst, o...), r...)
}

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
	for i, p := range pkts {
		done = append(done, a.Add(i, p)...)
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
	for i, p := range pkts {
		done = append(done, a.Add(i, p)...)
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
