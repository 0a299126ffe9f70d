package dataset

import (
	"lumen/internal/netpkt"
	"lumen/internal/pcap"
)

// Chunk is one bounded window of a packet stream: a contiguous run of
// time-ordered packets with their labels, plus the global index of the
// first packet so downstream consumers can keep dataset-wide packet
// indices (flow assembly, unit attribution) while only ever seeing one
// chunk at a time.
type Chunk struct {
	// Base is the global index of Views[0] in the full stream.
	Base int
	// Views are the chunk's packets: zero-copy PacketViews over the raw
	// frame bytes that decode layers on first touch (nil for an empty
	// chunk). They stay valid until the chunk is recycled and its Ref
	// released — the bytes may alias a file mapping, a pooled buffer or a
	// materialized dataset — so copy anything (a PacketSummary, a
	// Materialize'd packet over copied bytes) that must outlive that.
	Views []netpkt.PacketView
	// Labels and Attacks align with Views; nil or all zero when the source
	// has no ground truth (live captures, which may share one read-only
	// zero pair across chunks). A source never writes a chunk's label
	// slices once handed out, recycled or not: frames and verdict rows
	// alias them instead of copying.
	Labels  []int
	Attacks []string
	// Ref, when non-nil, is a reference the chunk holds on the resource
	// backing its packet bytes: a refcounted file mapping (pcap.Mapping)
	// for rotated-capture watches, whose chunks must outlive their reader,
	// or the refcounted read slabs of a live feed. The chunk's final owner
	// releases it exactly once, after Recycle, via ReleaseRef; the backing
	// resource stays alive until the last in-flight chunk does.
	Ref ChunkRef
}

// ChunkRef is one releasable reference on a chunk's backing resource
// (see Chunk.Ref). pcap.Mapping implements it.
type ChunkRef interface {
	Release() error
}

// ReleaseRef releases the chunk's backing-resource reference, if it
// carries one. Call exactly once per delivered chunk, after the last
// touch of its packet bytes (dataset.Pump does this in Done).
func (c Chunk) ReleaseRef() {
	if c.Ref != nil {
		c.Ref.Release()
	}
}

// Len returns the packet count of the chunk.
func (c Chunk) Len() int { return len(c.Views) }

// WireBytes sums the on-wire sizes of the chunk's packets.
func (c Chunk) WireBytes() int {
	n := 0
	for i := range c.Views {
		n += c.Views[i].WireLen()
	}
	return n
}

// SourceMeta describes a packet source without materializing it.
type SourceMeta struct {
	Name        string
	Granularity Granularity
	Link        netpkt.LinkType
	// Devices maps local endpoints to device kinds when known.
	Devices map[string]string
}

// Source is a chunked packet stream — the bounded-memory counterpart of
// handing a whole *Labeled to the engine. Implementations must emit
// packets in non-decreasing time order. A stream that holds no packets
// may end with no chunk at all: the engine's RunStream still runs one,
// empty, so its pass ends the same way as any other.
type Source interface {
	// Meta describes the stream (name, granularity, link type).
	Meta() SourceMeta
	// Next returns the next chunk, bounded by maxRows packets and
	// maxBytes wire bytes (each bound ignored when <= 0; a chunk always
	// contains at least one packet). The second result is false once
	// the stream is exhausted.
	Next(maxRows, maxBytes int) (Chunk, bool)
	// Reset rewinds the source so it can be streamed again.
	Reset() error
	// Err reports the error that ended the stream, nil when it ended
	// cleanly. Valid once Next has returned false.
	Err() error
}

// ViewSource is implemented by sources that can predecode their views on
// the producing goroutine (PcapSource, SliceSource). The consumer — whose
// plan knows how deep it will look — calls ConfigureViews before
// streaming; hint is the decode depth to apply as chunks are cut, so the
// work overlaps with downstream compute. The on parameter is vestigial:
// every source emits views unconditionally, so it is ignored (it
// survives only because the benchmark harness implements this
// interface; dropping it belongs to a benchmark PR). The return reports
// whether the hint was taken.
type ViewSource interface {
	ConfigureViews(on bool, hint netpkt.DecodeHint) bool
}

// AppendViews appends views over packets [lo, hi) of the dataset to dst,
// each predecoded to hint's depth. A view reads the record's wire bytes
// in place.
func (l *Labeled) AppendViews(dst []netpkt.PacketView, lo, hi int, hint netpkt.DecodeHint) []netpkt.PacketView {
	for _, p := range l.Packets[lo:hi] {
		dst = netpkt.AppendView(dst, p.Data, l.Link, p.Ts)
		dst[len(dst)-1].Predecode(hint)
	}
	return dst
}

// SliceSource streams an in-memory dataset as chunks of views over its
// packets' wire bytes. It exists so batch-materialized datasets (the
// synthetic corpora) run through the same chunked execution path as
// genuinely streaming sources. Streaming stays O(chunk): view slices
// come from a buffer pool and return to it through Recycle.
type SliceSource struct {
	ds   *Labeled
	pool *pcap.BufferPool
	hint netpkt.DecodeHint
	pos  int
}

// NewSliceSource wraps a materialized dataset.
func NewSliceSource(ds *Labeled) *SliceSource {
	return &SliceSource{ds: ds, pool: pcap.NewBufferPool()}
}

// Meta implements Source.
func (s *SliceSource) Meta() SourceMeta {
	return SourceMeta{Name: s.ds.Name, Granularity: s.ds.Granularity, Link: s.ds.Link, Devices: s.ds.Devices}
}

// ConfigureViews implements ViewSource: Next predecodes to hint's depth.
func (s *SliceSource) ConfigureViews(_ bool, hint netpkt.DecodeHint) bool {
	s.hint = hint
	return true
}

// Recycle implements Recycler: the chunk's view slice returns to the
// pool (the packet bytes belong to the dataset and are never pooled).
// Safe to call concurrently with Next.
func (s *SliceSource) Recycle(ck Chunk) { s.pool.PutViews(ck.Views) }

// Next implements Source: labels are subslices of the dataset's, views
// are built over the packets' bytes without copying them.
func (s *SliceSource) Next(maxRows, maxBytes int) (Chunk, bool) {
	n := len(s.ds.Packets)
	if s.pos >= n {
		return Chunk{}, false
	}
	end := n
	if maxRows > 0 && s.pos+maxRows < end {
		end = s.pos + maxRows
	}
	if maxBytes > 0 {
		bytes := 0
		e := s.pos
		for e < end {
			bytes += len(s.ds.Packets[e].Data)
			e++
			if bytes >= maxBytes {
				break
			}
		}
		end = e
		if end == s.pos { // always make progress
			end = s.pos + 1
		}
	}
	c := Chunk{Base: s.pos, Views: s.ds.AppendViews(s.pool.GetViews(), s.pos, end, s.hint)}
	if s.ds.Labels != nil {
		c.Labels = s.ds.Labels[s.pos:end]
	}
	if s.ds.Attacks != nil {
		c.Attacks = s.ds.Attacks[s.pos:end]
	}
	s.pos = end
	return c, true
}

// Reset implements Source.
func (s *SliceSource) Reset() error {
	s.pos = 0
	return nil
}

// Err implements Source: a dataset in memory cannot fail to stream.
func (s *SliceSource) Err() error { return nil }
