package dataset

import (
	"errors"
	"fmt"
	"io"
	"os"

	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// PcapSource streams a pcap capture as chunks of lazy netpkt.PacketViews
// without ever decoding the whole file — the genuinely bounded-memory
// ingestion path: peak memory is one chunk, independent of capture size.
// Packets carry zero labels (live captures have no ground truth).
//
// When the underlying stream is a regular file, the source memory-maps
// it and reads zero-copy: record bytes are subslices of the mapping, with
// no per-record copy or allocation; other streams copy records into
// pooled buffers. In mmap mode the caller must Close the source once
// every chunk is released; chunk data is invalid afterwards.
type PcapSource struct {
	name string
	rs   io.ReadSeeker
	r    *pcap.Reader
	gran Granularity
	base int
	pool *pcap.BufferPool
	// zeroCopy records whether the reader was built over a mapping. It is
	// read from here, not from the reader, because Close leaves the reader
	// looking buffered while the chunks it cut still alias the mapping.
	zeroCopy bool
	// hint is the decode depth applied as views are cut (ConfigureViews).
	hint netpkt.DecodeHint
	// refs: every emitted zero-copy chunk retains a reference on the file
	// mapping (EnableChunkRefs), so chunks stay valid past Close.
	refs bool
	done bool
	err  error
	// labels and attacks are all zero, grown on demand and never written:
	// every chunk carries sub-slices of the same two.
	labels  []int
	attacks []string
}

// NewPcapSource opens a capture for chunked streaming. rs must be
// positioned at the pcap global header; it is retained for Reset.
// Regular files are memory-mapped (zero-copy reads); other streams use
// the buffered reader. The source carries a buffer pool: consumers hand
// a fully processed chunk back with Recycle, and the reader reuses the
// buffers for later chunks.
func NewPcapSource(name string, rs io.ReadSeeker, gran Granularity) (*PcapSource, error) {
	return NewPcapSourcePooled(name, rs, gran, pcap.NewBufferPool())
}

// NewPcapSourcePooled opens a capture like NewPcapSource, but drawing
// decode buffers from the caller's pool instead of a private one. A
// rotated-capture watch streams many per-file sources back to back;
// sharing one pool across them keeps chunk buffers recycling across file
// boundaries.
func NewPcapSourcePooled(name string, rs io.ReadSeeker, gran Granularity, pool *pcap.BufferPool) (*PcapSource, error) {
	var r *pcap.Reader
	if f, ok := rs.(*os.File); ok {
		if mr, err := pcap.OpenMmap(f); err == nil {
			r = mr
		}
	}
	if r == nil {
		var err error
		r, err = pcap.NewReader(rs)
		if err != nil {
			return nil, err
		}
	}
	r.SetBufferPool(pool)
	return &PcapSource{name: name, rs: rs, r: r, gran: gran, pool: pool, zeroCopy: r.ZeroCopy()}, nil
}

// EnableChunkRefs makes every non-empty chunk of an mmap-backed source
// carry a retained reference on the file mapping (Chunk.Ref), shifting
// the unmap point from Close to the release of the last in-flight chunk:
// Close then only drops the reader's owner reference, and consumers
// release per-chunk refs via Chunk.ReleaseRef (dataset.Pump.Done does it
// automatically). This is what lets a rotated-capture watch serve
// zero-copy chunks that outlive each file's reader. It reports whether
// refs are active — false on buffered sources, whose chunks own their
// bytes and need no lifetime anchor.
func (p *PcapSource) EnableChunkRefs() bool {
	p.refs = p.r.ZeroCopy()
	return p.refs
}

// ConfigureViews implements ViewSource: Next predecodes each view to
// hint's depth on the reading goroutine.
func (p *PcapSource) ConfigureViews(_ bool, hint netpkt.DecodeHint) bool {
	p.hint = hint
	return true
}

// DecodeMode describes how the source reads and decodes, for operator
// surfaces: "mmap+lazy" or "buffered+lazy".
func (p *PcapSource) DecodeMode() string {
	if p.zeroCopy {
		return "mmap+lazy"
	}
	return "buffered+lazy"
}

// Recycle implements Recycler: it returns ck's view slice — and, for
// buffered reads, its record buffers — to the decoder's pool. The caller
// must not touch ck (or anything aliasing its views' Data) afterwards.
// Safe to call concurrently with Next — a pipelined sink recycles chunks
// while the source goroutine decodes ahead. In mmap mode the record
// bytes alias the mapping and are never pooled. A chunk carrying a
// mapping ref is zero-copy by construction, even when the reader has
// been closed since it was cut (rotated captures).
func (p *PcapSource) Recycle(ck Chunk) {
	if ck.Ref == nil && !p.zeroCopy {
		p.pool.PutOwnedViews(ck.Views)
		return
	}
	p.pool.PutViews(ck.Views)
}

// Close releases the memory mapping of an mmap-backed source (a no-op
// for buffered ones). Without chunk refs every outstanding chunk's data
// becomes invalid; with EnableChunkRefs only the owner reference drops,
// and in-flight chunks keep the mapping alive until their own release.
// It does not close the stream handed to NewPcapSource.
func (p *PcapSource) Close() error { return p.r.Close() }

// Meta implements Source.
func (p *PcapSource) Meta() SourceMeta {
	return SourceMeta{Name: p.name, Granularity: p.gran, Link: p.r.LinkType()}
}

// Next implements Source. Read errors end the stream; check Err after
// the final chunk.
func (p *PcapSource) Next(maxRows, maxBytes int) (Chunk, bool) {
	if p.done {
		return Chunk{}, false
	}
	views, err := p.r.ReadViews(maxRows, maxBytes, p.hint)
	n := len(views)
	if err != nil {
		p.done = true
		if !errors.Is(err, io.EOF) {
			p.err = err
		}
		if n == 0 {
			return Chunk{}, false
		}
	}
	if n > len(p.labels) {
		p.labels, p.attacks = make([]int, n), make([]string, n)
	}
	c := Chunk{
		Base:    p.base,
		Views:   views,
		Labels:  p.labels[:n:n],
		Attacks: p.attacks[:n:n],
	}
	if p.refs && n > 0 {
		if mp := p.r.Mapping(); mp != nil {
			mp.Retain()
			c.Ref = mp
		}
	}
	p.base += n
	return c, true
}

// Err implements Source: the read error that ended the stream, if any.
func (p *PcapSource) Err() error { return p.err }

// Reset implements Source: it rewinds to the capture start — in place
// for mmap-backed readers, via re-seek and header re-parse for buffered
// ones. The buffer pool (with whatever it accumulated) carries over to
// the new pass.
func (p *PcapSource) Reset() error {
	if !p.r.Rewind() {
		if _, err := p.rs.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("dataset: rewinding pcap source: %w", err)
		}
		r, err := pcap.NewReader(p.rs)
		if err != nil {
			return err
		}
		r.SetBufferPool(p.pool)
		p.r = r
	}
	p.base, p.done, p.err = 0, false, nil
	return nil
}

// LoadPcap reads a whole capture into an unlabeled packet dataset named
// after its path: every packet benign, no attack names.
func LoadPcap(path string) (*Labeled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return nil, err
	}
	var recs []*Record
	for {
		ts, data, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, &Record{Ts: ts, Data: data})
	}
	return &Labeled{
		Name:        path,
		Granularity: Packet,
		Link:        r.LinkType(),
		Packets:     recs,
		Labels:      make([]int, len(recs)),
		Attacks:     make([]string, len(recs)),
	}, nil
}
