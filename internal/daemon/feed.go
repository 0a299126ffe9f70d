package daemon

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

// MaxFrameBytes caps one framed-feed payload (timestamp + packet bytes).
// Frames above it are rejected as protocol corruption, protecting the
// daemon from a bad length prefix allocating gigabytes.
const MaxFrameBytes = 1 << 22

// feedSlabBytes sizes the slabs producer connections are read into: one
// Read fills as much of a slab as the socket holds, so at rate a read, a
// channel hand-off and a pool round trip are each paid once per quarter
// mebibyte rather than once per packet.
const feedSlabBytes = 256 << 10

// FeedSource ingests packets pushed over a network listener (TCP or unix
// socket) in a length-prefixed frame format — the push counterpart of
// pcap replay, for feeding lumend from a capture process on another
// host. Any number of producers may connect; their packets interleave in
// arrival order, a read's worth at a time. FeedSource is not resettable:
// a live feed has no beginning to rewind to, so Reload does not apply.
//
// Frame wire format, all integers big-endian:
//
//	uint32 length   // byte length of the remainder of the frame
//	uint64 ts_ns    // packet timestamp, Unix nanoseconds
//	bytes  packet   // raw link-layer packet bytes (length - 8 of them)
//
// WriteFrame emits this format.
//
// Nothing is copied or decoded on the way in: a reader goroutine per
// producer reads the connection straight into a refcounted slab, checks
// each length prefix where it lies and queues the run of complete frames
// every read produced as one batch; Next cuts chunks of lazy views over
// the slab bytes. Each chunk's Ref holds a reference on every slab its
// views alias and the slab returns to the pool when the last chunk over
// it is released — the slab is the feed's pcap.Mapping. The buffer
// lifetime rides Chunk.Ref rather than dataset.Recycler, so the source's
// capability set stays what a live feed is: no rewind, no hint, no
// labels.
//
// A producer that sends a bad length prefix, ends inside a frame or fails
// in transport loses its connection and is counted (ConnErrors); the
// frames it completed first are delivered and every other producer keeps
// flowing. Only a listener failure reaches Err.
type FeedSource struct {
	name    string
	link    netpkt.LinkType
	ln      net.Listener
	batches chan feedBatch
	slabs   *slabPool
	views   *pcap.BufferPool // chunk view slices

	stop     chan struct{}
	stopOnce sync.Once
	readers  sync.WaitGroup

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	err       error
	connErrs  [len(feedConnReasons)]int64
	mConnErrs [len(feedConnReasons)]*obs.Counter

	// The rest is Next's alone (a Source has one consumer).
	cur     feedBatch // the batch being cut, possibly across chunks
	base    int
	emitted bool
	// labels and attacks are all zero: a live feed has no ground truth,
	// so every chunk carries sub-slices of the same two.
	labels  []int
	attacks []string
}

// The reasons a producer connection is closed on a fault, indexing
// FeedSource.connErrs; feedConnReasons are their names, the reason label
// values of lumen_feed_conn_errors_total.
const (
	connErrLength    = iota // a length prefix outside [8, MaxFrameBytes]
	connErrTruncated        // the stream ended inside a frame
	connErrRead             // a transport error
)

var feedConnReasons = [...]string{connErrLength: "length", connErrTruncated: "truncated", connErrRead: "read"}

// NewFeedSource starts accepting producers on ln, whose frames carry
// link-layer packets of the given link type. buffer bounds what may
// queue ahead of the pipeline. The bound is in bytes, not packets: it is
// counted at a nominal 1 KiB a packet and held in whole read batches,
// each pinning at most one 256 KiB slab, so 0 (which means 1024) queues
// four batches, ≈ 1 MiB, and anything under 512 queues one. Beyond the
// queue a feed holds one slab per producer being read and the slabs
// under chunks not yet released; producers that outrun all of it block
// in their socket.
func NewFeedSource(name string, ln net.Listener, link netpkt.LinkType, buffer int) *FeedSource {
	if buffer <= 0 {
		buffer = 1024
	}
	s := &FeedSource{
		name:    name,
		link:    link,
		ln:      ln,
		batches: make(chan feedBatch, max(1, buffer<<10/feedSlabBytes)),
		slabs:   &slabPool{size: feedSlabBytes},
		views:   pcap.NewBufferPool(),
		stop:    make(chan struct{}),
		conns:   map[net.Conn]struct{}{},
	}
	s.readers.Add(1)
	go s.accept()
	go func() {
		s.readers.Wait()
		close(s.batches)
	}()
	return s
}

// Addr returns the listener's address (where producers connect).
func (s *FeedSource) Addr() net.Addr { return s.ln.Addr() }

// accept admits producer connections until the listener closes.
func (s *FeedSource) accept() {
	defer s.readers.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stop: // expected: Drain closed the listener
			default:
				s.mu.Lock()
				s.err = fmt.Errorf("daemon: feed %q: accept: %w", s.name, err)
				s.mu.Unlock()
			}
			return
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.readers.Add(1)
		go s.read(c)
	}
}

// feedSlab is one read buffer and the count of who still needs its
// bytes: the framer filling it, each queued batch over it, each
// unreleased chunk with views into it.
type feedSlab struct {
	buf  []byte
	refs atomic.Int32
	pool *slabPool // nil for a one-frame slab larger than the pool's
}

// release drops one reference; the last one out returns the slab to its
// pool, after which its bytes may be overwritten at any time.
func (s *feedSlab) release() {
	if s.refs.Add(-1) == 0 && s.pool != nil {
		s.pool.free.Put(s)
	}
}

// slabPool recycles the fixed-size slabs of one feed.
type slabPool struct {
	size int
	free sync.Pool // *feedSlab, len(buf) == size
}

// get returns a slab of at least n bytes holding one reference: a pooled
// or fresh one of the pool's size when that is enough, else one of
// exactly n bytes that is dropped, not pooled, when released.
func (p *slabPool) get(n int) *feedSlab {
	var s *feedSlab
	if n > p.size {
		s = &feedSlab{buf: make([]byte, n)}
	} else if s, _ = p.free.Get().(*feedSlab); s == nil {
		s = &feedSlab{buf: make([]byte, p.size), pool: p}
	}
	s.refs.Store(1)
	return s
}

// feedBatch is a run of n complete, length-checked frames lying back to
// back in slab.buf from off. It owns one reference on the slab.
type feedBatch struct {
	slab *feedSlab
	off  int
	n    int
}

// errFrameLength marks a length prefix outside [8, MaxFrameBytes].
var errFrameLength = errors.New("out of range")

// slabFramer parses the feed wire format off one byte stream, in place:
// it reads into a slab and hands out the frames each read completed as
// one batch over the slab's own bytes. Only the frame a read cut short
// is ever copied, and only when it cannot be finished where it lies: it
// then opens the next slab.
type slabFramer struct {
	r    io.Reader
	pool *slabPool
	slab *feedSlab // being filled (nil before the first read); the framer holds one reference
	off  int       // start of the first frame not yet handed out
	fill int       // end of the bytes read so far
	err  error     // what ended the stream: reported once the frames before it are out
}

// next returns the next run of complete frames, reading (once, unless a
// read completes no frame) when none is buffered: a batch is never held
// back for a fuller slab. Every length prefix is checked before anything
// is sized by it or skipped over, so a lying prefix never allocates past
// MaxFrameBytes. io.EOF comes back bare only when the stream ended on a
// frame boundary; every other failure names the part of the frame it hit,
// and comes after the frames that were whole before it.
func (f *slabFramer) next() (feedBatch, error) {
	for {
		if b := f.cut(); b.n > 0 {
			return b, nil
		}
		switch {
		case f.err == nil:
		case errors.Is(f.err, errFrameLength):
			return feedBatch{}, f.err
		case f.err != io.EOF:
			return feedBatch{}, fmt.Errorf("read: %w", f.err)
		case f.fill-f.off >= 4:
			return feedBatch{}, fmt.Errorf("frame body: %w", io.ErrUnexpectedEOF)
		case f.fill > f.off:
			return feedBatch{}, fmt.Errorf("frame header: %w", io.ErrUnexpectedEOF)
		default:
			return feedBatch{}, io.EOF
		}
		f.makeRoom()
		n, err := f.r.Read(f.slab.buf[f.fill:])
		f.fill += n
		f.err = err
	}
}

// cut hands out the complete frames buffered from off, stopping at the
// first incomplete one or (setting err) the first bad prefix.
func (f *slabFramer) cut() feedBatch {
	if f.slab == nil {
		return feedBatch{}
	}
	b := feedBatch{slab: f.slab, off: f.off}
	end := f.off
	for f.fill-end >= 4 {
		n := binary.BigEndian.Uint32(f.slab.buf[end:])
		if n < 8 || n > MaxFrameBytes {
			f.err = fmt.Errorf("frame length %d %w [8, %d]", n, errFrameLength, MaxFrameBytes)
			break
		}
		if f.fill-end < 4+int(n) {
			break
		}
		end += 4 + int(n)
		b.n++
	}
	if b.n > 0 {
		f.slab.refs.Add(1)
		f.off = end
	}
	return b
}

// makeRoom leaves the framer on a slab where the frame cut short at off
// can be finished: the current one when it fits there, else the next,
// opened with the bytes read of that frame — a pool slab, or for a frame
// larger than those (its prefix is already checked) one of exactly its
// size.
func (f *slabFramer) makeRoom() {
	need := 4
	if f.fill-f.off >= 4 {
		need += int(binary.BigEndian.Uint32(f.slab.buf[f.off:]))
	}
	if f.slab != nil && f.off+need <= len(f.slab.buf) {
		return
	}
	next := f.pool.get(need)
	if f.slab != nil {
		copy(next.buf, f.slab.buf[f.off:f.fill])
		f.slab.release()
	}
	f.slab, f.off, f.fill = next, 0, f.fill-f.off
}

// close drops the framer's reference on the slab it was filling.
func (f *slabFramer) close() {
	if f.slab != nil {
		f.slab.release()
		f.slab = nil
	}
}

// read queues one producer's frames, a read's worth at a time, until it
// disconnects, faults or drain.
func (s *FeedSource) read(c net.Conn) {
	defer s.readers.Done()
	f := slabFramer{r: c, pool: s.slabs}
	defer func() {
		f.close()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for {
		b, err := f.next()
		if err != nil {
			// A clean end and the closed-connection error drain provokes
			// on purpose are not faults.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.connFailed(err)
			}
			return
		}
		select {
		case s.batches <- b:
		case <-s.stop:
			b.slab.release()
			return
		}
	}
}

// connFailed counts one producer connection closed on a fault.
func (s *FeedSource) connFailed(err error) {
	reason := connErrRead
	switch {
	case errors.Is(err, errFrameLength):
		reason = connErrLength
	case errors.Is(err, io.ErrUnexpectedEOF):
		reason = connErrTruncated
	}
	s.mu.Lock()
	s.connErrs[reason]++
	m := s.mConnErrs[reason]
	s.mu.Unlock()
	m.Inc()
}

// ConnErrors reports how many producer connections the feed has closed
// on a fault, by reason: "length" (a prefix outside [8, MaxFrameBytes]),
// "truncated" (the stream ended inside a frame) or "read" (a transport
// error). It is nil while there were none.
func (s *FeedSource) ConnErrors() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out map[string]int64
	for i, n := range s.connErrs {
		if n > 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[feedConnReasons[i]] = n
		}
	}
	return out
}

// bindMetrics publishes ConnErrors as lumen_feed_conn_errors_total under
// the pipeline that owns the feed. A source is bound once.
func (s *FeedSource) bindMetrics(m *obs.Metrics, pipeline string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, reason := range feedConnReasons {
		c := m.Counter("lumen_feed_conn_errors_total",
			"Producer connections a feed closed on a fault: a length prefix out of range, a stream truncated inside a frame, or a read error.",
			"pipeline", pipeline, "reason", reason)
		c.Add(uint64(s.connErrs[i]))
		s.mConnErrs[i] = c
	}
}

// Meta implements dataset.Source. Live feeds carry no ground truth and
// stream at packet granularity.
func (s *FeedSource) Meta() dataset.SourceMeta {
	return dataset.SourceMeta{Name: s.name, Granularity: dataset.Packet, Link: s.link}
}

// Next implements dataset.Source: it blocks for the first available
// packet, then cuts whatever else already arrived up to the chunk
// bounds. The stream ends after Drain, once the queued packets are
// consumed.
func (s *FeedSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	if s.cur.n == 0 {
		if s.cur = <-s.batches; s.cur.n == 0 { // closed: every reader is gone
			if s.emitted {
				return dataset.Chunk{}, false
			}
			s.emitted = true
			return dataset.Chunk{Base: s.base}, true
		}
	}
	if maxRows <= 0 {
		maxRows = math.MaxInt
	}
	if maxBytes <= 0 {
		maxBytes = math.MaxInt
	}
	ref := &feedRef{pool: s.views, views: s.views.GetViews()}
	ref.slabs = ref.held[:0]
	if cap(ref.views) == 0 {
		ref.views = make([]netpkt.PacketView, 0, min(maxRows, 1024))
	}
	for bytes := 0; len(ref.views) < maxRows && bytes < maxBytes; {
		if s.cur.n == 0 {
			select {
			case s.cur = <-s.batches:
			default:
			}
			if s.cur.n == 0 {
				break // nothing else has arrived yet, or ever will
			}
		}
		bytes += ref.cut(&s.cur, s.link, maxRows-len(ref.views), maxBytes-bytes)
	}
	n := len(ref.views)
	if n > len(s.labels) {
		s.labels, s.attacks = make([]int, n), make([]string, n)
	}
	ck := dataset.Chunk{
		Base:    s.base,
		Views:   ref.views,
		Labels:  s.labels[:n:n],
		Attacks: s.attacks[:n:n],
		Ref:     ref,
	}
	s.base += n
	s.emitted = true
	return ck, true
}

// feedRef is a feed chunk's Chunk.Ref: it owns the chunk's view slice
// and one reference on each slab the views alias.
type feedRef struct {
	pool  *pcap.BufferPool
	views []netpkt.PacketView
	slabs []*feedSlab
	held  [2]*feedSlab // backs slabs: a chunk rarely spans more
}

// cut appends views over b's frames until b is used up or the chunk has
// taken rows more views or bytes more wire bytes, and returns the wire
// bytes it took. A used-up batch gives its slab reference back.
func (r *feedRef) cut(b *feedBatch, link netpkt.LinkType, rows, bytes int) int {
	if n := len(r.slabs); n == 0 || r.slabs[n-1] != b.slab {
		b.slab.refs.Add(1)
		r.slabs = append(r.slabs, b.slab)
	}
	buf, off, took := b.slab.buf, b.off, 0
	for ; b.n > 0 && rows > 0 && took < bytes; rows-- {
		end := off + 4 + int(binary.BigEndian.Uint32(buf[off:]))
		ts := time.Unix(0, int64(binary.BigEndian.Uint64(buf[off+4:]))).UTC()
		// The capacity stops at the frame: an append to Data reallocates
		// instead of overwriting the next frame's prefix.
		r.views = netpkt.AppendView(r.views, buf[off+12:end:end], link, ts)
		took += end - off - 12
		off = end
		b.n--
	}
	b.off = off
	if b.n == 0 {
		b.slab.release()
		b.slab = nil
	}
	return took
}

// Release implements dataset.ChunkRef: the chunk's final owner is done
// with its packets, so the view slice goes back to the pool and each
// slab loses the chunk's reference — the last chunk over a slab thereby
// hands it back to the readers.
func (r *feedRef) Release() error {
	r.pool.PutViews(r.views)
	for _, s := range r.slabs {
		s.release()
	}
	r.views, r.slabs = nil, nil
	return nil
}

// Reset implements dataset.Source; live feeds cannot rewind.
func (s *FeedSource) Reset() error {
	return fmt.Errorf("daemon: feed %q: live feeds cannot be reset", s.name)
}

// Drain implements Drainer: the listener and every producer connection
// close; packets already queued still reach the pipeline, then the
// stream ends.
func (s *FeedSource) Drain() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
}

// Err implements the optional error surface: a listener failure. A
// faulty producer fails only its own connection (see ConnErrors), and
// producer disconnects are not errors.
func (s *FeedSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// WriteFrame writes one framed packet in the FeedSource wire format.
// Through a *bufio.Writer (with room for a header) the header is built
// in the writer's own buffer and the call allocates nothing; through any
// other writer it costs the header's escape to the heap.
func WriteFrame(w io.Writer, ts time.Time, pkt []byte) error {
	if len(pkt)+8 > MaxFrameBytes {
		return fmt.Errorf("daemon: WriteFrame: packet of %d bytes exceeds the %d-byte frame cap", len(pkt), MaxFrameBytes-8)
	}
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok && bw.Size() >= 12 {
		if bw.Available() < 12 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		hdr = bw.AvailableBuffer()[:12]
	} else {
		hdr = make([]byte, 12)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(pkt)+8))
	binary.BigEndian.PutUint64(hdr[4:], uint64(ts.UnixNano()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(pkt)
	return err
}
