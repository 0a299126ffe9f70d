package flow

import (
	"slices"
	"strings"
	"time"
	"unsafe"

	"lumen/internal/netpkt"
)

// Assembler groups a time-ordered packet stream into flows
// incrementally, keyed one of two ways: by the directed tuple, whose
// flows are uniflows, or by the canonical bidirectional tuple, whose
// flows are connections with their conn state assigned as they close.
// Feed packets with Feed (or Add); a flow closes once it has sat idle
// past the timeout. Eviction only changes *when* a flow closes, never
// its contents: a swept flow's next same-key packet (if any) arrives
// after a gap already exceeding the idle timeout, so batch assembly
// would have split there too. Driving the assembler over a whole
// capture therefore yields exactly the flows of Uniflows or Connections,
// however the caller cuts the stream into chunks.
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
type Assembler struct {
	idle time.Duration
	// bidir keys flows by the canonical tuple and finalizes them as they
	// close; otherwise the directed tuple is the key.
	bidir     bool
	active    map[netpkt.FiveTuple]*Flow
	root      Flow // list sentinel: root.next is the stalest flow
	free      []Flow
	lastSweep time.Time
	started   bool
	// now is the newest packet's timestamp; queue holds every flow not
	// yet released; evicted is Feed's result, reused call after call.
	now     time.Time
	queue   releaseQueue
	evicted []*Flow
}

// flowBlockBytes is the size of the blocks an assembler allocates flows
// in: 16 KiB, less the 8-byte header the allocator puts before an object
// that large holding pointers, so a block fills its size class.
const flowBlockBytes = 16<<10 - 8

// NewUniflowAssembler returns an empty assembler keyed by the directed
// tuple: its flows are uniflows.
func NewUniflowAssembler(opts Options) *Assembler { return newAssembler(opts, false) }

// NewConnAssembler returns an empty assembler keyed by the canonical
// tuple: its flows are connections. bench/harness calls it too.
func NewConnAssembler(opts Options) *Assembler { return newAssembler(opts, true) }

func newAssembler(opts Options, bidir bool) *Assembler {
	a := &Assembler{idle: opts.idle(), bidir: bidir, active: make(map[netpkt.FiveTuple]*Flow)}
	a.root.prev, a.root.next = &a.root, &a.root
	return a
}

// key returns the assembler's key for a packet's tuple.
func (a *Assembler) key(t netpkt.FiveTuple) netpkt.FiveTuple {
	if a.bidir {
		return t.Canonical()
	}
	return t
}

// Open returns how many flows the assembler currently holds open.
func (a *Assembler) Open() int { return len(a.active) }

// Held returns how many closed flows wait for Release: a closed flow
// waits while an open flow started no later than it did, or while it
// started at the newest packet's instant.
func (a *Assembler) Held() int { return a.queue.n - len(a.active) }

// Add is Feed over an eagerly decoded packet.
func (a *Assembler) Add(p *netpkt.Packet) []*Flow {
	s := p.Summary()
	return a.Feed(&s)
}

// AddSummary is Feed over a summary passed by value, for bench/harness's
// isolated assembler layer, which takes the flows each call evicts. i is
// the packet's index in the harness's stream, which flows do not record.
func (a *Assembler) AddSummary(i int, s netpkt.PacketSummary) []*Flow {
	return a.Feed(&s)
}

// Newest returns the flow the most recent packet with a five-tuple
// joined (nil when no flow is open): the back of the idle list. A caller
// that keeps member stats attaches the packet's right after Feed.
func (a *Assembler) Newest() *Flow {
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
func (a *Assembler) Feed(s *netpkt.PacketSummary) []*Flow {
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
	key := a.key(s.Tuple)
	f := a.active[key]
	if f != nil && s.Ts.Sub(f.Last) > a.idle {
		a.close(f)
		a.evicted = append(a.evicted, f)
		f = nil
	}
	if f == nil {
		f = a.take()
		f.Tuple, f.First = s.Tuple, s.Ts // first packet defines originator
		a.active[key] = f
		a.queue.push(f)
	}
	if a.root.prev != f {
		if f.next != nil {
			f.prev.next, f.next.prev = f.next, f.prev
		}
		back := a.root.prev
		back.next, f.prev, f.next, a.root.prev = f, back, &a.root, f
	}
	f.add(s)
	return a.evicted
}

// take returns the next unused flow of the current block, allocating a
// new block when it is spent.
func (a *Assembler) take() *Flow {
	if len(a.free) == 0 {
		a.free = make([]Flow, flowBlockBytes/unsafe.Sizeof(Flow{}))
	}
	f := &a.free[0]
	a.free = a.free[1:]
	return f
}

// close takes a flow off the idle list and, under the bidirectional key,
// assigns its conn state.
func (a *Assembler) close(f *Flow) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
	if a.bidir {
		f.finalize()
	}
}

// sweep closes every active flow idle past the timeout onto a.evicted.
// Evicted flows are removed from the active set, so Flush cannot emit
// them again.
func (a *Assembler) sweep(now time.Time) {
	for f := a.root.next; f != &a.root && now.Sub(f.Last) > a.idle; f = a.root.next {
		a.close(f)
		delete(a.active, a.key(f.Tuple))
		a.evicted = append(a.evicted, f)
	}
}

// Release appends to dst the closed flows that no open or future flow
// can sort before, in canonical order (Sort), and forgets them:
// successive calls and then ReleaseAll hand on the stream's flows in the
// order the batch drivers return them.
func (a *Assembler) Release(dst []*Flow) []*Flow {
	n := len(dst)
	dst = a.queue.release(dst, a.now)
	Sort(dst[n:])
	return dst
}

// ReleaseAll closes every open flow (end of stream), appends every flow
// not yet released to dst in canonical order, and resets the assembler
// for reuse.
func (a *Assembler) ReleaseAll(dst []*Flow) []*Flow {
	for f := a.root.next; f != &a.root; f = a.root.next {
		a.close(f)
	}
	n := len(dst)
	dst = a.queue.drain(dst)
	Sort(dst[n:])
	a.reset()
	return dst
}

// Flush closes and emits the remaining active flows (end of stream) in
// canonical order and resets the assembler for reuse: the end of a
// stream whose closed flows were taken from Feed. bench/harness calls
// it.
func (a *Assembler) Flush() []*Flow {
	out := make([]*Flow, 0, len(a.active))
	for f := a.root.next; f != &a.root; f = a.root.next {
		a.close(f)
		out = append(out, f)
	}
	Sort(out)
	a.queue.reset()
	a.reset()
	return out
}

// reset readies an assembler whose flows have all left for a new stream.
func (a *Assembler) reset() {
	clear(a.active)
	clear(a.evicted)
	a.evicted = a.evicted[:0]
	a.started = false
}

// add folds one packet summary into the flow; direction is derived by
// comparing the packet's oriented five-tuple to the originator's, so
// under the directed key every packet is the originator's.
func (f *Flow) add(s *netpkt.PacketSummary) {
	fromOrig := s.Tuple == f.Tuple
	if fromOrig {
		f.OrigPkts++
		f.OrigBytes += s.Wire
		f.OrigPayload += s.PayloadLen
	} else {
		f.RespPkts++
		f.RespBytes += s.Wire
		f.RespPayload += s.PayloadLen
	}
	f.Last = s.Ts
	if s.HasTCP {
		fl := s.TCPFlags
		switch {
		case fromOrig && fl&netpkt.FlagSYN != 0 && fl&netpkt.FlagACK == 0:
			f.sawSYN = true
		case !fromOrig && fl&(netpkt.FlagSYN|netpkt.FlagACK) == netpkt.FlagSYN|netpkt.FlagACK:
			f.sawSYNACK = true
		}
		if fl&netpkt.FlagFIN != 0 {
			f.sawOrigFIN = f.sawOrigFIN || fromOrig
			f.sawRespFIN = f.sawRespFIN || !fromOrig
		}
		if fl&netpkt.FlagRST != 0 {
			f.sawOrigRST = f.sawOrigRST || fromOrig
			f.sawRespRST = f.sawRespRST || !fromOrig
		}
	}
}

// Sort orders flows by first-packet time, then tuple — the canonical
// output order of batch assembly. The tuple is only rendered for flows
// that start at the same instant.
func Sort(fs []*Flow) {
	slices.SortFunc(fs, func(a, b *Flow) int {
		if c := a.First.Compare(b.First); c != 0 {
			return c
		}
		return strings.Compare(a.Tuple.String(), b.Tuple.String())
	})
}

// SortConnections is Sort under its old name, kept for bench/harness.
func SortConnections(cs []*Flow) { Sort(cs) }
