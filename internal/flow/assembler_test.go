package flow

import (
	"reflect"
	"testing"

	"lumen/internal/netpkt"
)

// driveUni feeds packets through an assembler in arbitrary chunking and
// returns the combined output in canonical order.
func driveUni(pkts []*netpkt.Packet, opts Options) (mid, all []*Uniflow) {
	a := NewUniflowAssembler(opts)
	for _, p := range pkts {
		mid = append(mid, a.Add(p)...)
	}
	all = append(append([]*Uniflow{}, mid...), a.Flush()...)
	SortUniflows(all)
	return mid, all
}

func driveConn(pkts []*netpkt.Packet, opts Options) (mid, all []*Connection) {
	a := NewConnAssembler(opts)
	for _, p := range pkts {
		mid = append(mid, a.Add(p)...)
	}
	all = append(append([]*Connection{}, mid...), a.Flush()...)
	SortConnections(all)
	return mid, all
}

// TestAssemblerMatchesBatchUniflows: incrementally driven assembly must
// equal the batch entry point exactly, including with idle splits.
func TestAssemblerMatchesBatchUniflows(t *testing.T) {
	var pkts []*netpkt.Packet
	pkts = append(pkts, handshake(t, 0)...)
	pkts = append(pkts, udpPkt(t, hostA, hostB, 5000, 53, 1))
	pkts = append(pkts, handshake(t, 200)...) // same tuple, past idle: split
	pkts = append(pkts, udpPkt(t, hostA, hostB, 5000, 53, 201))
	opts := Options{}
	batch := Uniflows(pkts, opts)
	_, all := driveUni(pkts, opts)
	if !reflect.DeepEqual(batch, all) {
		t.Fatalf("incremental assembly diverges from batch:\nbatch %d flows, incremental %d flows", len(batch), len(all))
	}
}

// TestAssemblerMatchesBatchConnections is the bidirectional counterpart,
// checking conn-state finalization survives mid-stream eviction.
func TestAssemblerMatchesBatchConnections(t *testing.T) {
	var pkts []*netpkt.Packet
	pkts = append(pkts, handshake(t, 0)...)
	// A connection that is RST-torn-down, then the port pair reused much
	// later — the eviction boundary case.
	pkts = append(pkts, tcpPkt(t, hostA, hostB, 4321, 80, netpkt.FlagSYN, 2, ""))
	pkts = append(pkts, tcpPkt(t, hostB, hostA, 80, 4321, netpkt.FlagRST, 2.01, ""))
	pkts = append(pkts, handshake(t, 300)...)
	pkts = append(pkts, tcpPkt(t, hostA, hostB, 4321, 80, netpkt.FlagSYN, 301, ""))
	opts := Options{}
	batch := Connections(pkts, opts)
	mid, all := driveConn(pkts, opts)
	if !reflect.DeepEqual(batch, all) {
		t.Fatalf("incremental assembly diverges from batch: batch %d conns, incremental %d", len(batch), len(all))
	}
	if len(mid) == 0 {
		t.Fatal("no connection was evicted mid-stream despite a gap past the idle timeout")
	}
	// Mid-stream evictions must arrive finalized: the full handshake with
	// FIN close is StateSF, the RST-rejected one StateREJ.
	states := map[ConnState]bool{}
	for _, c := range mid {
		states[c.State] = true
	}
	if !states[StateSF] {
		t.Error("evicted handshake connection not finalized to SF")
	}
	if !states[StateREJ] {
		t.Error("evicted RST connection not finalized to REJ")
	}
}

// TestAssemblerEvictsMidStream: an idle flow must be emitted by Add (not
// held until Flush), and must not be emitted twice.
func TestAssemblerEvictsMidStream(t *testing.T) {
	var pkts []*netpkt.Packet
	pkts = append(pkts, handshake(t, 0)...)
	// Unrelated traffic 200s later triggers the sweep.
	pkts = append(pkts, udpPkt(t, hostA, hostB, 9000, 123, 200))
	a := NewConnAssembler(Options{})
	var mid []*Connection
	for _, p := range pkts {
		mid = append(mid, a.Add(p)...)
	}
	if len(mid) != 1 {
		t.Fatalf("got %d mid-stream evictions, want 1", len(mid))
	}
	if got := mid[0].OrigPkts + mid[0].RespPkts; got != 8 {
		t.Errorf("evicted connection has %d packets, want 8", got)
	}
	rest := a.Flush()
	if len(rest) != 1 {
		t.Fatalf("flush emitted %d connections, want 1 (the UDP flow)", len(rest))
	}
	if rest[0].Tuple.Proto != netpkt.ProtoUDP {
		t.Errorf("flush re-emitted an already-evicted connection: %v", rest[0].Tuple)
	}
}

// TestAssemblerSweepThrottle: the sweep runs at most once per idle
// interval, so tightly spaced packets do not rescan the table each time.
func TestAssemblerSweepThrottle(t *testing.T) {
	a := NewUniflowAssembler(Options{})
	// Packets 1s apart never advance past the 64s default idle window, so
	// nothing is ever evicted mid-stream even across many flows.
	var mid []*Uniflow
	for s := 0.0; s < 60; s++ {
		mid = append(mid, a.Add(udpPkt(t, hostA, hostB, uint16(6000+s), 53, s))...)
	}
	if len(mid) != 0 {
		t.Fatalf("sweep evicted %d flows inside the idle window", len(mid))
	}
	if got := len(a.Flush()); got != 60 {
		t.Fatalf("flush emitted %d flows, want 60", got)
	}
}

// TestAssemblerChunkedFeedEqualsWhole: splitting the same stream at every
// possible boundary cannot change the output (chunking only affects who
// calls Add, not what it sees): counts, and the member stats a caller
// attaches through Newest, equal batch assembly's connections with their
// members found by the membership oracle.
func TestAssemblerChunkedFeedEqualsWhole(t *testing.T) {
	var pkts []*netpkt.Packet
	pkts = append(pkts, handshake(t, 0)...)
	pkts = append(pkts, handshake(t, 100)...)
	pkts = append(pkts, udpPkt(t, hostB, hostA, 53, 5353, 100.5))
	want := Connections(pkts, Options{})
	refAttachStats(pkts, want)
	var slab StatSlab
	add := func(a *ConnAssembler, p *netpkt.Packet) []*Connection {
		s := p.Summary()
		out := a.Feed(&s)
		a.Newest().AddStat(StatOf(&s), &slab)
		return out
	}
	for cut := 1; cut < len(pkts); cut++ {
		a := NewConnAssembler(Options{})
		var out []*Connection
		for _, p := range pkts[:cut] {
			out = append(out, add(a, p)...)
		}
		for _, p := range pkts[cut:] {
			out = append(out, add(a, p)...)
		}
		out = append(out, a.Flush()...)
		SortConnections(out)
		if !reflect.DeepEqual(want, out) {
			t.Fatalf("cut at %d diverges from batch", cut)
		}
	}
}

// refAttachStats is the membership oracle: a connection's members are the
// packets with its canonical tuple whose timestamp falls in [First, Last]
// (idle splits never overlap), attached in capture order.
func refAttachStats(pkts []*netpkt.Packet, conns []*Connection) {
	var slab StatSlab
	for _, c := range conns {
		for _, p := range pkts {
			s := p.Summary()
			if s.HasTuple && s.Tuple.Canonical() == c.Tuple.Canonical() && !s.Ts.Before(c.First) && !s.Ts.After(c.Last) {
				c.AddStat(StatOf(&s), &slab)
			}
		}
	}
}

// TestAssemblerFlushResets: an assembler is reusable after Flush.
func TestAssemblerFlushResets(t *testing.T) {
	a := NewUniflowAssembler(Options{})
	pkts := handshake(t, 0)
	for _, p := range pkts {
		a.Add(p)
	}
	first := a.Flush()
	for _, p := range pkts {
		a.Add(p)
	}
	second := a.Flush()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("assembler not reusable after Flush")
	}
}
