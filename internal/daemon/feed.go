package daemon

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// MaxFrameBytes caps one framed-feed payload (timestamp + packet bytes).
// Frames above it are rejected as protocol corruption, protecting the
// daemon from a bad length prefix allocating gigabytes.
const MaxFrameBytes = 1 << 22

// FeedSource ingests packets pushed over a network listener (TCP or unix
// socket) in a length-prefixed frame format — the push counterpart of
// pcap replay, for feeding lumend from a capture process on another
// host. Any number of producers may connect; their packets interleave in
// arrival order. FeedSource is not resettable: a live feed has no
// beginning to rewind to, so Reload does not apply.
//
// Frame wire format, all integers big-endian:
//
//	uint32 length   // byte length of the remainder of the frame
//	uint64 ts_ns    // packet timestamp, Unix nanoseconds
//	bytes  packet   // raw link-layer packet bytes (length - 8 of them)
//
// WriteFrame emits this format.
//
// Nothing is decoded on the way in: a reader goroutine per producer
// copies each frame's packet bytes into a pooled buffer and queues them,
// and Next cuts chunks of lazy views over those buffers. Each chunk's
// Ref owns its view slice and frame buffers and hands both back to the
// pool on release — the feed's buffer lifetime rides Chunk.Ref rather
// than dataset.Recycler, so the source's capability set stays what a
// live feed is: no rewind, no hint, no labels.
type FeedSource struct {
	name   string
	link   netpkt.LinkType
	ln     net.Listener
	frames chan feedFrame
	pool   *pcap.BufferPool

	stop     chan struct{}
	stopOnce sync.Once
	readers  sync.WaitGroup

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	err     error
	base    int
	emitted bool
}

// feedFrame is one queued packet: its timestamp and its bytes, the
// latter in a buffer drawn from the source's pool.
type feedFrame struct {
	ts   time.Time
	data []byte
}

// NewFeedSource starts accepting producers on ln, whose frames carry
// link-layer packets of the given link type. buffer bounds how many
// packets may queue ahead of the pipeline (0 means 1024).
func NewFeedSource(name string, ln net.Listener, link netpkt.LinkType, buffer int) *FeedSource {
	if buffer <= 0 {
		buffer = 1024
	}
	s := &FeedSource{
		name:   name,
		link:   link,
		ln:     ln,
		frames: make(chan feedFrame, buffer),
		pool:   pcap.NewBufferPool(),
		stop:   make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	s.readers.Add(1)
	go s.accept()
	go func() {
		s.readers.Wait()
		close(s.frames)
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
				s.setErr(fmt.Errorf("daemon: feed %q: accept: %w", s.name, err))
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

// frameReader parses the feed wire format off one byte stream. hdr is
// its scratch for the length prefix and timestamp, kept on the reader so
// parsing a frame allocates nothing but (on a pool miss) the packet
// buffer.
type frameReader struct {
	r    io.Reader
	pool *pcap.BufferPool
	hdr  [12]byte
}

// next reads one frame: its timestamp and its packet bytes, the latter
// in a buffer drawn from the pool (hand it back with PutData). The
// length prefix is validated before anything is sized by it, so a lying
// prefix never allocates past MaxFrameBytes. io.EOF comes back bare only
// when the stream ended on a frame boundary; every other failure names
// the part of the frame it hit.
func (f *frameReader) next() (ts time.Time, data []byte, err error) {
	if _, err := io.ReadFull(f.r, f.hdr[:4]); err != nil {
		if err != io.EOF {
			err = fmt.Errorf("frame header: %w", err)
		}
		return time.Time{}, nil, err
	}
	n := binary.BigEndian.Uint32(f.hdr[:4])
	if n < 8 || n > MaxFrameBytes {
		return time.Time{}, nil, fmt.Errorf("frame length %d out of range [8, %d]", n, MaxFrameBytes)
	}
	if err := f.body(f.hdr[4:]); err != nil {
		return time.Time{}, nil, err
	}
	data = f.pool.GetData(int(n) - 8)
	if err := f.body(data); err != nil {
		f.pool.PutData(data)
		return time.Time{}, nil, err
	}
	return time.Unix(0, int64(binary.BigEndian.Uint64(f.hdr[4:]))).UTC(), data, nil
}

// body fills b with the next bytes of a frame whose prefix was already
// read: running out of stream here is a cut frame, never a clean end.
func (f *frameReader) body(b []byte) error {
	_, err := io.ReadFull(f.r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("frame body: %w", err)
	}
	return nil
}

// read queues one producer's frames until it disconnects or drain. The
// connection is read through a buffer so the three short reads a frame
// takes do not each cost a system call.
func (s *FeedSource) read(c net.Conn) {
	defer s.readers.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	fr := &frameReader{r: bufio.NewReaderSize(c, 1<<16), pool: s.pool}
	for {
		ts, data, err := fr.next()
		if err != nil {
			if err != io.EOF && !isClosed(err) {
				s.setErr(fmt.Errorf("daemon: feed %q: %w", s.name, err))
			}
			return
		}
		select {
		case s.frames <- feedFrame{ts, data}:
		case <-s.stop:
			return
		}
	}
}

// isClosed reports the use-of-closed-connection errors that drain
// provokes on purpose.
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// setErr records the first feed error for Err.
func (s *FeedSource) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Meta implements dataset.Source. Live feeds carry no ground truth and
// stream at packet granularity.
func (s *FeedSource) Meta() dataset.SourceMeta {
	return dataset.SourceMeta{Name: s.name, Granularity: dataset.Packet, Link: s.link}
}

// Next implements dataset.Source: it blocks for the first available
// packet, then batches whatever else already arrived up to the chunk
// bounds. The stream ends after Drain, once the queued packets are
// consumed.
func (s *FeedSource) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	first, ok := <-s.frames
	if !ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.emitted {
			s.emitted = true
			return dataset.Chunk{Base: s.base}, true
		}
		return dataset.Chunk{}, false
	}
	ref := &feedRef{pool: s.pool, views: s.pool.GetViews()}
	bytes := ref.add(first, s.link)
	for (maxRows <= 0 || len(ref.views) < maxRows) && (maxBytes <= 0 || bytes < maxBytes) {
		select {
		case f, more := <-s.frames:
			if !more {
				goto done
			}
			bytes += ref.add(f, s.link)
		default:
			goto done
		}
	}
done:
	n := len(ref.views)
	s.mu.Lock()
	ck := dataset.Chunk{
		Base:    s.base,
		Views:   ref.views,
		Labels:  make([]int, n),
		Attacks: make([]string, n),
		Ref:     ref,
	}
	s.base += n
	s.emitted = true
	s.mu.Unlock()
	return ck, true
}

// feedRef is a feed chunk's Chunk.Ref: it owns the chunk's view slice
// and, through the views' Data, its frame buffers.
type feedRef struct {
	pool  *pcap.BufferPool
	views []netpkt.PacketView
}

// add appends a view over one queued frame and returns its wire length.
func (r *feedRef) add(f feedFrame, link netpkt.LinkType) int {
	r.views = append(r.views, netpkt.PacketView{})
	r.views[len(r.views)-1].Reset(f.data, link, f.ts)
	return len(f.data)
}

// Release implements dataset.ChunkRef: the chunk's final owner is done
// with its packets, so the frame buffers and the view slice go back to
// the pool for the reader goroutines and the next chunk to reuse.
func (r *feedRef) Release() error {
	r.pool.PutOwnedViews(r.views)
	r.views = nil
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

// Err implements the optional error surface: the first protocol or
// listener error observed (producer disconnects are not errors).
func (s *FeedSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// WriteFrame writes one framed packet in the FeedSource wire format.
func WriteFrame(w io.Writer, ts time.Time, pkt []byte) error {
	if len(pkt)+8 > MaxFrameBytes {
		return fmt.Errorf("daemon: WriteFrame: packet of %d bytes exceeds the %d-byte frame cap", len(pkt), MaxFrameBytes-8)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(pkt)+8))
	binary.BigEndian.PutUint64(hdr[4:], uint64(ts.UnixNano()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(pkt)
	return err
}
