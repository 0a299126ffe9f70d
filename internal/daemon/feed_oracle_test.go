package daemon

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"lumen/internal/pcap"
)

// refFrameReader is the per-frame parser slabFramer replaced (three
// io.ReadFulls and a pooled copy per frame), kept as the reference the
// in-place framer is held to: FuzzFeedFrame and the split sweeps require
// the same frames and the same terminal error from both.
type refFrameReader struct {
	r    io.Reader
	pool *pcap.BufferPool
	hdr  [12]byte
}

// next reads one frame: its timestamp and its packet bytes, the latter
// in a buffer drawn from the pool.
func (f *refFrameReader) next() (ts time.Time, data []byte, err error) {
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
func (f *refFrameReader) body(b []byte) error {
	_, err := io.ReadFull(f.r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("frame body: %w", err)
	}
	return nil
}

// refFrame is one parsed frame, its bytes copied out of whatever buffer
// the parser lent.
type refFrame struct {
	ts   time.Time
	data []byte
}

// refFrames parses r to its end with the reference reader.
func refFrames(r io.Reader) ([]refFrame, error) {
	fr := &refFrameReader{r: r, pool: pcap.NewBufferPool()}
	var out []refFrame
	for {
		ts, data, err := fr.next()
		if err != nil {
			return out, err
		}
		out = append(out, refFrame{ts, append([]byte(nil), data...)})
		fr.pool.PutData(data)
	}
}
