package flow

import (
	"slices"
	"strings"
	"time"
	"unsafe"

	"lumen/internal/netpkt"
)

// UniflowAssembler groups a time-ordered packet stream into uniflows
// incrementally. Feed packets with Feed (or Add); a flow closes once it
// has sat idle past the timeout. Eviction only changes *when* a flow
// closes, never its contents: a swept flow's next same-tuple packet (if
// any) arrives after a gap already exceeding the idle timeout, so batch
// assembly would have split there too. Driving the assembler over a
// whole capture therefore yields exactly the flows of Uniflows, however
// the caller cuts the stream into chunks.
//
// Closed flows leave one of two ways, and a caller takes them one way
// only: Release hands them on in canonical order as soon as no open or
// future flow can sort before them, and ReleaseAll ends the stream with
// the rest; or Feed returns each packet's evictions and Flush the flows
// still open at the end.
//
// The active flows are threaded on an intrusive list in order of their
// last packet (every packet moves its flow to the back), so the idle
// sweep pops heads until one is fresh: on a time-ordered stream that is
// exactly the set a scan of the whole table finds, at O(evicted).
//
// Flows are allocated a 16 KiB block at a time, so a flow costs a
// fraction of an allocation; flows leave in about the order they were
// made, so a block outlives its last flow's release by little.
type UniflowAssembler struct {
	idle      time.Duration
	active    map[netpkt.FiveTuple]*Uniflow
	root      Uniflow // list sentinel: root.next is the stalest flow
	free      []Uniflow
	lastSweep time.Time
	started   bool
	// now is the newest packet's timestamp; queue holds every flow not
	// yet released; evicted is Feed's result, reused call after call.
	now     time.Time
	queue   releaseQueue[*Uniflow]
	evicted []*Uniflow
}

// flowBlockBytes is the size of the blocks an assembler allocates flows
// in: 16 KiB, less the 8-byte header the allocator puts before an object
// that large holding pointers, so a block fills its size class.
const flowBlockBytes = 16<<10 - 8

// take returns the next unused element of a flow block, allocating a new
// block when free is spent.
func take[T any](free *[]T) *T {
	if len(*free) == 0 {
		var f T
		*free = make([]T, flowBlockBytes/unsafe.Sizeof(f))
	}
	f := &(*free)[0]
	*free = (*free)[1:]
	return f
}

// NewUniflowAssembler returns an empty assembler with the given options.
func NewUniflowAssembler(opts Options) *UniflowAssembler {
	a := &UniflowAssembler{idle: opts.idle(), active: make(map[netpkt.FiveTuple]*Uniflow)}
	a.root.prev, a.root.next = &a.root, &a.root
	return a
}

// Open returns how many flows the assembler currently holds open.
func (a *UniflowAssembler) Open() int { return len(a.active) }

// Held returns how many closed flows wait for Release: a closed flow
// waits while an open flow started no later than it did, or while it
// started at the newest packet's instant.
func (a *UniflowAssembler) Held() int { return a.queue.n - len(a.active) }

// Add is Feed over an eagerly decoded packet.
func (a *UniflowAssembler) Add(p *netpkt.Packet) []*Uniflow {
	s := p.Summary()
	return a.Feed(&s)
}

// Newest returns the flow the most recent packet with a five-tuple
// joined (nil when no flow is open): the back of the idle list. A caller
// that keeps member stats attaches the packet's right after Feed.
func (a *UniflowAssembler) Newest() *Uniflow {
	if a.root.prev == &a.root {
		return nil
	}
	return a.root.prev
}

// Feed ingests one packet from its summary — the form lazy packet views
// and any other representation feed the assembler in; s is only read
// during the call. It returns the flows the packet closed because they
// had been idle past the timeout, in no particular order, in a slice the
// next call reuses. Packets without a five-tuple advance the idle sweep
// but join no flow. Packets must arrive in non-decreasing time order.
func (a *UniflowAssembler) Feed(s *netpkt.PacketSummary) []*Uniflow {
	if len(a.evicted) > 0 {
		clear(a.evicted)
		a.evicted = a.evicted[:0]
	}
	a.now = s.Ts
	if !a.started {
		a.started = true
		a.lastSweep = s.Ts
	} else if s.Ts.Sub(a.lastSweep) > a.idle {
		a.sweep(s.Ts)
		a.lastSweep = s.Ts
	}
	if !s.HasTuple {
		return a.evicted
	}
	f := a.active[s.Tuple]
	if f != nil && s.Ts.Sub(f.Last) > a.idle {
		f.unlink()
		a.evicted = append(a.evicted, f)
		f = nil
	}
	if f == nil {
		f = take(&a.free)
		f.Tuple, f.First = s.Tuple, s.Ts
		a.active[s.Tuple] = f
		a.queue.push(f)
	}
	if a.root.prev != f {
		if f.next != nil {
			f.prev.next, f.next.prev = f.next, f.prev
		}
		back := a.root.prev
		back.next, f.prev, f.next, a.root.prev = f, back, &a.root, f
	}
	f.Pkts++
	f.Last = s.Ts
	f.Bytes += s.Wire
	f.Payload += s.PayloadLen
	return a.evicted
}

// unlink takes an emitted flow off the assembler's list.
func (f *Uniflow) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// sweep evicts every active flow idle past the timeout onto a.evicted.
// Evicted flows are removed from the active set, so Flush cannot emit
// them again.
func (a *UniflowAssembler) sweep(now time.Time) {
	for f := a.root.next; f != &a.root && now.Sub(f.Last) > a.idle; f = a.root.next {
		f.unlink()
		delete(a.active, f.Tuple)
		a.evicted = append(a.evicted, f)
	}
}

// Release appends to dst the closed flows that no open or future flow
// can sort before, in canonical order (SortUniflows), and forgets them:
// successive calls and then ReleaseAll hand on the stream's flows in the
// order Uniflows returns them.
func (a *UniflowAssembler) Release(dst []*Uniflow) []*Uniflow {
	n := len(dst)
	dst = a.queue.release(dst, a.now)
	SortUniflows(dst[n:])
	return dst
}

// ReleaseAll closes every open flow (end of stream), appends every flow
// not yet released to dst in canonical order, and resets the assembler
// for reuse.
func (a *UniflowAssembler) ReleaseAll(dst []*Uniflow) []*Uniflow {
	for f := a.root.next; f != &a.root; f = a.root.next {
		f.unlink()
	}
	n := len(dst)
	dst = a.queue.drain(dst)
	SortUniflows(dst[n:])
	a.reset()
	return dst
}

// Flush emits the remaining active flows (end of stream) in canonical
// order and resets the assembler for reuse: the end of a stream whose
// closed flows were taken from Feed.
func (a *UniflowAssembler) Flush() []*Uniflow {
	out := make([]*Uniflow, 0, len(a.active))
	for f := a.root.next; f != &a.root; f = a.root.next {
		f.unlink()
		out = append(out, f)
	}
	SortUniflows(out)
	a.queue.reset()
	a.reset()
	return out
}

// reset readies an assembler whose flows have all left for a new stream.
func (a *UniflowAssembler) reset() {
	clear(a.active)
	clear(a.evicted)
	a.evicted = a.evicted[:0]
	a.started = false
}

// ConnAssembler is the bidirectional counterpart of UniflowAssembler:
// it groups a time-ordered packet stream into Zeek-style connections,
// closing idle connections mid-stream with their conn state finalized.
type ConnAssembler struct {
	idle      time.Duration
	active    map[netpkt.FiveTuple]*Connection // by canonical tuple
	root      Connection                       // list sentinel, as in UniflowAssembler
	free      []Connection                     // see UniflowAssembler
	lastSweep time.Time
	started   bool
	now       time.Time // see UniflowAssembler
	queue     releaseQueue[*Connection]
	evicted   []*Connection
}

// NewConnAssembler returns an empty assembler with the given options.
func NewConnAssembler(opts Options) *ConnAssembler {
	a := &ConnAssembler{idle: opts.idle(), active: make(map[netpkt.FiveTuple]*Connection)}
	a.root.prev, a.root.next = &a.root, &a.root
	return a
}

// Open returns how many connections the assembler currently holds open.
func (a *ConnAssembler) Open() int { return len(a.active) }

// Held returns how many closed connections wait for Release; see
// UniflowAssembler.Held.
func (a *ConnAssembler) Held() int { return a.queue.n - len(a.active) }

// Add is Feed over an eagerly decoded packet.
func (a *ConnAssembler) Add(p *netpkt.Packet) []*Connection {
	s := p.Summary()
	return a.Feed(&s)
}

// AddSummary is Feed over a summary passed by value: the form the
// benchmark harness's isolated assembler layer calls, which takes the
// connections each call evicts. i is the packet's index in the
// harness's stream, which connections do not record.
func (a *ConnAssembler) AddSummary(i int, s netpkt.PacketSummary) []*Connection {
	return a.Feed(&s)
}

// Newest returns the connection the most recent packet with a five-tuple
// joined (nil when none is open); see UniflowAssembler.Newest.
func (a *ConnAssembler) Newest() *Connection {
	if a.root.prev == &a.root {
		return nil
	}
	return a.root.prev
}

// Feed ingests one packet from its summary and returns the connections
// it closed, finalized (conn state assigned); see UniflowAssembler.Feed.
func (a *ConnAssembler) Feed(s *netpkt.PacketSummary) []*Connection {
	if len(a.evicted) > 0 {
		clear(a.evicted)
		a.evicted = a.evicted[:0]
	}
	a.now = s.Ts
	if !a.started {
		a.started = true
		a.lastSweep = s.Ts
	} else if s.Ts.Sub(a.lastSweep) > a.idle {
		a.sweep(s.Ts)
		a.lastSweep = s.Ts
	}
	if !s.HasTuple {
		return a.evicted
	}
	key := s.Tuple.Canonical()
	c := a.active[key]
	if c != nil && s.Ts.Sub(c.Last) > a.idle {
		c.unlink()
		c.finalize()
		a.evicted = append(a.evicted, c)
		c = nil
	}
	if c == nil {
		c = take(&a.free)
		c.Tuple, c.First = s.Tuple, s.Ts // first packet defines originator
		a.active[key] = c
		a.queue.push(c)
	}
	if a.root.prev != c {
		if c.next != nil {
			c.prev.next, c.next.prev = c.next, c.prev
		}
		back := a.root.prev
		back.next, c.prev, c.next, a.root.prev = c, back, &a.root, c
	}
	c.add(s)
	return a.evicted
}

// unlink takes an emitted connection off the assembler's list.
func (c *Connection) unlink() {
	c.prev.next, c.next.prev = c.next, c.prev
	c.prev, c.next = nil, nil
}

// sweep evicts and finalizes every active connection idle past the
// timeout onto a.evicted, removing it from the active set so Flush
// cannot emit it again.
func (a *ConnAssembler) sweep(now time.Time) {
	for c := a.root.next; c != &a.root && now.Sub(c.Last) > a.idle; c = a.root.next {
		c.unlink()
		delete(a.active, c.Tuple.Canonical())
		c.finalize()
		a.evicted = append(a.evicted, c)
	}
}

// Release appends to dst the closed connections that no open or future
// connection can sort before, in canonical order (SortConnections), and
// forgets them; see UniflowAssembler.Release.
func (a *ConnAssembler) Release(dst []*Connection) []*Connection {
	n := len(dst)
	dst = a.queue.release(dst, a.now)
	SortConnections(dst[n:])
	return dst
}

// ReleaseAll finalizes every open connection (end of stream), appends
// every connection not yet released to dst in canonical order, and
// resets the assembler for reuse.
func (a *ConnAssembler) ReleaseAll(dst []*Connection) []*Connection {
	for c := a.root.next; c != &a.root; c = a.root.next {
		c.unlink()
		c.finalize()
	}
	n := len(dst)
	dst = a.queue.drain(dst)
	SortConnections(dst[n:])
	a.reset()
	return dst
}

// Flush finalizes and emits the remaining active connections (end of
// stream) in canonical order and resets the assembler for reuse; see
// UniflowAssembler.Flush.
func (a *ConnAssembler) Flush() []*Connection {
	out := make([]*Connection, 0, len(a.active))
	for c := a.root.next; c != &a.root; c = a.root.next {
		c.unlink()
		c.finalize()
		out = append(out, c)
	}
	SortConnections(out)
	a.queue.reset()
	a.reset()
	return out
}

// reset readies an assembler whose connections have all left for a new
// stream.
func (a *ConnAssembler) reset() {
	clear(a.active)
	clear(a.evicted)
	a.evicted = a.evicted[:0]
	a.started = false
}

// add folds one packet summary into the connection; direction is derived
// by comparing the packet's oriented five-tuple to the originator's.
func (c *Connection) add(s *netpkt.PacketSummary) {
	fromOrig := s.Tuple == c.Tuple
	if fromOrig {
		c.OrigPkts++
		c.OrigBytes += s.Wire
		c.OrigPayload += s.PayloadLen
	} else {
		c.RespPkts++
		c.RespBytes += s.Wire
		c.RespPayload += s.PayloadLen
	}
	c.Last = s.Ts
	if s.HasTCP {
		fl := s.TCPFlags
		switch {
		case fromOrig && fl&netpkt.FlagSYN != 0 && fl&netpkt.FlagACK == 0:
			c.sawSYN = true
		case !fromOrig && fl&(netpkt.FlagSYN|netpkt.FlagACK) == netpkt.FlagSYN|netpkt.FlagACK:
			c.sawSYNACK = true
		}
		if fl&netpkt.FlagFIN != 0 {
			c.sawOrigFIN = c.sawOrigFIN || fromOrig
			c.sawRespFIN = c.sawRespFIN || !fromOrig
		}
		if fl&netpkt.FlagRST != 0 {
			c.sawOrigRST = c.sawOrigRST || fromOrig
			c.sawRespRST = c.sawRespRST || !fromOrig
		}
	}
}

// SortUniflows orders flows by first-packet time, then tuple — the
// canonical output order of batch assembly. The tuple is only rendered
// for flows that start at the same instant.
func SortUniflows(us []*Uniflow) {
	slices.SortFunc(us, func(a, b *Uniflow) int {
		if c := a.First.Compare(b.First); c != 0 {
			return c
		}
		return strings.Compare(a.Tuple.String(), b.Tuple.String())
	})
}

// SortConnections orders connections by first-packet time, then tuple.
func SortConnections(cs []*Connection) {
	slices.SortFunc(cs, func(a, b *Connection) int {
		if c := a.First.Compare(b.First); c != 0 {
			return c
		}
		return strings.Compare(a.Tuple.String(), b.Tuple.String())
	})
}
