// Package pcap reads and writes classic libpcap capture files (the format
// every dataset the paper benchmarks ships in). It supports microsecond
// and nanosecond timestamp magic in both byte orders on the read side and
// writes little-endian microsecond files, the most widely compatible
// variant.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lumen/internal/netpkt"
)

// BufferPool recycles packet data buffers and chunk view slices across
// reads, cutting the per-packet record copy (Reader.Next in buffered
// mode) and the per-chunk slice growth of ReadViews. It is safe for
// concurrent use: a streaming consumer may return finished chunks from
// one goroutine while the producer pulls buffers from another.
//
// Returning a buffer that a live view still references corrupts that
// view, so only the owner of the full chunk lifecycle (e.g.
// dataset.PcapSource.Recycle) should call the Put methods.
type BufferPool struct {
	data  sync.Pool // *[]byte, capacity varies
	views sync.Pool // *[]netpkt.PacketView

	gets   atomic.Uint64
	reuses atomic.Uint64
}

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool { return &BufferPool{} }

// GetData returns a length-n buffer, reusing a pooled one when it is
// large enough. The contents are unspecified.
func (p *BufferPool) GetData(n int) []byte {
	p.gets.Add(1)
	if b, ok := p.data.Get().(*[]byte); ok && b != nil {
		if cap(*b) >= n {
			p.reuses.Add(1)
			return (*b)[:n]
		}
		// Too small for this record; a capture's larger packets would
		// otherwise starve the pool, so drop it and allocate fresh.
	}
	return make([]byte, n)
}

// PutData returns one packet data buffer to the pool.
func (p *BufferPool) PutData(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	p.data.Put(&b)
}

// GetViews returns an empty view slice, reusing a pooled backing array.
func (p *BufferPool) GetViews() []netpkt.PacketView {
	if s, ok := p.views.Get().(*[]netpkt.PacketView); ok && s != nil {
		return (*s)[:0]
	}
	return nil
}

// PutViews returns a chunk's view slice to the pool. Views are zeroed so
// pooled backing arrays do not pin raw buffers or app-layer messages.
func (p *BufferPool) PutViews(s []netpkt.PacketView) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	p.views.Put(&s)
}

// PutOwnedViews returns a chunk whose views own their bytes — buffered
// pcap records — to the pool: each view's Data buffer, then
// the slice. Views over borrowed bytes (a mapping, a dataset) take
// PutViews alone.
func (p *BufferPool) PutOwnedViews(s []netpkt.PacketView) {
	for i := range s {
		p.PutData(s[i].Data)
	}
	p.PutViews(s)
}

// openMappings counts the live file mappings of the process: created by
// OpenMmap, gone once the last reference (owner Reader plus any retained
// chunk refs) is released. Exported through OpenMappings for leak gauges.
var openMappings atomic.Int64

// OpenMappings reports how many pcap file mappings are currently live —
// readers still open plus mappings kept alive by retained references.
// Operator surfaces use it as a leak gauge: after every source is closed
// and every in-flight chunk released, it must return to its prior value.
func OpenMappings() int64 { return openMappings.Load() }

// Mapping is a refcounted memory-mapped pcap file. The Reader that
// OpenMmap returns owns one reference (released by Reader.Close);
// consumers whose record slices must outlive the reader — a directory
// watch whose chunks survive each rotated file — Retain one reference
// per in-flight chunk and Release it when the chunk is done. The region
// is only unmapped when the count reaches zero, so record bytes stay
// valid until the last holder lets go, regardless of the order in which
// the reader closes and the chunks drain.
type Mapping struct {
	data []byte
	refs atomic.Int64
}

// newMapping wraps a freshly mapped region with one owner reference.
func newMapping(data []byte) *Mapping {
	m := &Mapping{data: data}
	m.refs.Store(1)
	openMappings.Add(1)
	return m
}

// Retain adds one reference; pair every Retain with exactly one Release.
func (m *Mapping) Retain() { m.refs.Add(1) }

// Release drops one reference and unmaps the region when it was the
// last. Every record slice and view cut from the mapping becomes invalid
// at that point. Safe to call from any goroutine.
func (m *Mapping) Release() error {
	n := m.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		panic("pcap: Mapping released more often than retained")
	}
	data := m.data
	m.data = nil
	openMappings.Add(-1)
	return munmap(data)
}

// Magic numbers of the classic pcap format.
const (
	magicUsec = 0xa1b2c3d4
	magicNsec = 0xa1b23c4d
)

// DefaultSnapLen is the snapshot length written to file headers.
const DefaultSnapLen = 65535

// maxSnapLen is the largest record the reader accepts whatever snapshot
// length the file header claims (libpcap's MAXIMUM_SNAPLEN). Without it
// a hostile header pair (snaplen and record length both near 2^32) makes
// the buffered reader allocate gigabytes before it notices the stream is
// short.
const maxSnapLen = 262144

// ErrBadMagic is returned when the stream does not start with a pcap
// global header.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Reader decodes packets from a pcap stream. It has two modes: buffered
// (NewReader, record bytes copied off an io.Reader) and zero-copy
// (OpenMmap, record bytes are subslices of the memory-mapped file — see
// OpenMmap for the lifetime rules).
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	nanos   bool
	link    netpkt.LinkType
	snapLen uint32
	hdr     [16]byte
	pool    *BufferPool

	// mm/pos drive the zero-copy mode: the mapped file and the read
	// offset into it. mm is nil in buffered mode. mp is the refcounted
	// handle behind mm; the reader holds the owner reference.
	mm  []byte
	mp  *Mapping
	pos int
}

// SetBufferPool makes Next draw record data buffers (and ReadViews its
// view slices) from p instead of allocating fresh ones. The caller is
// then responsible for returning buffers of finished packets via the
// pool's Put methods; nil disables pooling (the default).
func (r *Reader) SetBufferPool(p *BufferPool) { r.pool = p }

// NewReader parses the global header and prepares to stream packets.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var gh [24]byte
	if _, err := io.ReadFull(br, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	rd := &Reader{r: br}
	if err := rd.parseGlobal(gh[:]); err != nil {
		return nil, err
	}
	return rd, nil
}

// parseGlobal decodes the 24-byte global header into the reader.
func (r *Reader) parseGlobal(gh []byte) error {
	magicLE := binary.LittleEndian.Uint32(gh[0:4])
	magicBE := binary.BigEndian.Uint32(gh[0:4])
	switch {
	case magicLE == magicUsec:
		r.order = binary.LittleEndian
	case magicLE == magicNsec:
		r.order, r.nanos = binary.LittleEndian, true
	case magicBE == magicUsec:
		r.order = binary.BigEndian
	case magicBE == magicNsec:
		r.order, r.nanos = binary.BigEndian, true
	default:
		return ErrBadMagic
	}
	r.snapLen = r.order.Uint32(gh[16:20])
	r.link = netpkt.LinkType(r.order.Uint32(gh[20:24]))
	return nil
}

// ZeroCopy reports whether the reader is in mmap mode, where record data
// slices alias the mapped region (and must not be pooled or retained past
// Close).
func (r *Reader) ZeroCopy() bool { return r.mm != nil }

// Mapping returns the refcounted mapping behind a zero-copy reader (nil
// in buffered mode, and after Close). Consumers that hand record slices
// downstream past the reader's lifetime Retain it per chunk and Release
// on the chunk's last use.
func (r *Reader) Mapping() *Mapping { return r.mp }

// Rewind repositions a zero-copy reader at the first record and reports
// whether it could (false in buffered mode, where the caller must seek
// the underlying stream and build a new Reader instead).
func (r *Reader) Rewind() bool {
	if r.mm == nil {
		return false
	}
	r.pos = 24
	return true
}

// Close releases the owner reference on the mapping of a zero-copy
// reader. With no other references outstanding the region is unmapped
// immediately and every record slice and view it handed out becomes
// invalid; references retained via Mapping keep the region alive until
// their own Release. It is a no-op (and nil error) in buffered mode, and
// idempotent in both.
func (r *Reader) Close() error {
	if r.mp == nil {
		return nil
	}
	mp := r.mp
	r.mm, r.mp = nil, nil
	return mp.Release()
}

// LinkType reports the capture's link type.
func (r *Reader) LinkType() netpkt.LinkType { return r.link }

// Next returns the next raw record. It returns io.EOF cleanly at end of
// stream. In buffered mode the data slice is freshly allocated unless a
// BufferPool is attached (then it may reuse a recycled buffer); in
// zero-copy mode it is a subslice of the mapped file, valid until Close.
func (r *Reader) Next() (ts time.Time, data []byte, origLen int, err error) {
	var hdr []byte
	if r.mm != nil {
		if r.pos+16 > len(r.mm) {
			// At (or partially into) end of map: a dangling partial record
			// header ends the stream cleanly, like buffered mode.
			return time.Time{}, nil, 0, io.EOF
		}
		hdr = r.mm[r.pos : r.pos+16]
	} else {
		if _, err = io.ReadFull(r.r, r.hdr[:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				err = io.EOF
			}
			return time.Time{}, nil, 0, err
		}
		hdr = r.hdr[:]
	}
	sec := r.order.Uint32(hdr[0:4])
	sub := r.order.Uint32(hdr[4:8])
	incl := r.order.Uint32(hdr[8:12])
	orig := r.order.Uint32(hdr[12:16])
	// A record cannot legitimately exceed the capture's snapshot length
	// (the default when the header says 0, never past maxSnapLen): such a
	// length is a corrupt or malicious record header, and trusting it
	// would mis-frame every later record.
	limit := min(r.snapLen, maxSnapLen)
	if limit == 0 {
		limit = DefaultSnapLen
	}
	if incl > limit {
		return time.Time{}, nil, 0, fmt.Errorf("pcap: record length %d exceeds snaplen %d", incl, limit)
	}
	if r.mm != nil {
		start := r.pos + 16
		if start+int(incl) > len(r.mm) {
			return time.Time{}, nil, 0, fmt.Errorf("pcap: truncated record: %w", io.ErrUnexpectedEOF)
		}
		data = r.mm[start : start+int(incl) : start+int(incl)]
		r.pos = start + int(incl)
	} else {
		if r.pool != nil {
			data = r.pool.GetData(int(incl))
		} else {
			data = make([]byte, int(incl))
		}
		if _, err = io.ReadFull(r.r, data); err != nil {
			return time.Time{}, nil, 0, fmt.Errorf("pcap: truncated record: %w", err)
		}
	}
	nsec := int64(sub)
	if !r.nanos {
		nsec *= 1000
	}
	return time.Unix(int64(sec), nsec).UTC(), data, int(orig), nil
}

// NextPacket reads and decodes the next packet.
func (r *Reader) NextPacket() (*netpkt.Packet, error) {
	ts, data, _, err := r.Next()
	if err != nil {
		return nil, err
	}
	return netpkt.Decode(data, r.link, ts), nil
}

// ReadAll decodes every remaining packet in the stream.
func (r *Reader) ReadAll() ([]*netpkt.Packet, error) {
	var out []*netpkt.Packet
	for {
		p, err := r.NextPacket()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// ReadViews reads up to maxRows records (or maxBytes wire bytes; each
// bound ignored when <= 0) into PacketViews without holding the rest of
// the capture in memory, applying hint on each so the requested decode
// depth happens here, on the reading goroutine. In zero-copy mode the
// views alias the mapped file; in buffered mode they own pooled (or
// fresh) record buffers. It always makes progress: at least one record
// is returned unless the stream is at EOF, in which case it returns
// (nil, io.EOF). The view
// slice comes from the attached BufferPool when present — hand it back
// with PutViews (plus PutData per record in buffered mode) when done.
func (r *Reader) ReadViews(maxRows, maxBytes int, hint netpkt.DecodeHint) ([]netpkt.PacketView, error) {
	var out []netpkt.PacketView
	if r.pool != nil {
		out = r.pool.GetViews()
	}
	bytes := 0
	for maxRows <= 0 || len(out) < maxRows {
		ts, data, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			if len(out) == 0 {
				if r.pool != nil {
					r.pool.PutViews(out)
				}
				return nil, io.EOF
			}
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if cap(out) == 0 && maxRows > 0 {
			// A fresh slice (no pool, or a pool miss) is sized for the
			// chunk at once instead of doubling its way there.
			out = make([]netpkt.PacketView, 0, min(maxRows, 1024))
		}
		out = append(out, netpkt.PacketView{})
		v := &out[len(out)-1]
		v.Reset(data, r.link, ts)
		v.Predecode(hint)
		bytes += len(data)
		if maxBytes > 0 && bytes >= maxBytes {
			break
		}
	}
	return out, nil
}

// Writer encodes packets to a pcap stream.
type Writer struct {
	w     *bufio.Writer
	nanos bool
}

// NewWriter writes a little-endian global header for the given link type.
func NewWriter(w io.Writer, link netpkt.LinkType) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:4], magicUsec)
	binary.LittleEndian.PutUint16(gh[4:6], 2)
	binary.LittleEndian.PutUint16(gh[6:8], 4)
	binary.LittleEndian.PutUint32(gh[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(gh[20:24], uint32(link))
	if _, err := bw.Write(gh[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// WriteRaw appends one record with the given timestamp.
func (w *Writer) WriteRaw(ts time.Time, data []byte) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Flush drains the internal buffer to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }
