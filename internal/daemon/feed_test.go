package daemon

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/pcap"
)

// encodeFrames renders every packet of ds in the feed wire format, as
// one buffer a producer can push with a single write.
func encodeFrames(t testing.TB, ds *dataset.Labeled) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range ds.Packets {
		if err := WriteFrame(&buf, p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// boundedFeed ends a live feed after n packets: it drains the source
// once that many were delivered, the way a daemon's Drain would.
type boundedFeed struct {
	*FeedSource
	n, seen int
}

func (b *boundedFeed) Next(maxRows, maxBytes int) (dataset.Chunk, bool) {
	ck, ok := b.FeedSource.Next(maxRows, maxBytes)
	if b.seen += ck.Len(); b.seen >= b.n {
		b.Drain()
	}
	return ck, ok
}

// pushFeed starts a feed queueing up to buffer packets, connects one
// producer that pushes the n frames and disconnects, and returns the
// feed bounded to n packets.
func pushFeed(t testing.TB, ds *dataset.Labeled, frames []byte, n, buffer int) *boundedFeed {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp loopback unavailable: %v", err)
	}
	src := NewFeedSource("feed", ln, ds.Link, buffer)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := c.Write(frames); err != nil {
			t.Error(err)
		}
		c.Close()
	}()
	return &boundedFeed{FeedSource: src, n: n}
}

// TestFeedStagedMatchesSequential streams the same feed through the
// sequential loop and through the staged pipeline, where the reader
// goroutines refill pooled frame buffers and view slices while the
// source, worker and sink stages still hold earlier chunks: verdicts
// must be identical — and equal to the batch run's — however arrival
// timing cut the chunks. Run under -race this is the gate for the
// feed's Chunk.Ref buffer lifetime.
func TestFeedStagedMatchesSequential(t *testing.T) {
	ds := testDS(t)
	frames := encodeFrames(t, ds)
	eng := trainedEngine(t, ds)
	batch, err := eng.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg core.StreamConfig) *core.EvalResult {
		t.Helper()
		src := pushFeed(t, ds, frames, len(ds.Packets), 256)
		res, err := eng.RunStream(src, core.ModeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(core.StreamConfig{ChunkRows: 64})
	if !reflect.DeepEqual(seq.Pred, batch.Pred) || !reflect.DeepEqual(seq.Scores, batch.Scores) || !reflect.DeepEqual(seq.UnitIdx, batch.UnitIdx) {
		t.Fatal("sequential feed verdicts differ from the batch run")
	}
	for _, cfg := range []core.StreamConfig{
		{ChunkRows: 64, PipelineDepth: 4},
		{ChunkRows: 64, PipelineDepth: 4, Workers: 2},
	} {
		if got := run(cfg); !reflect.DeepEqual(seq, got) {
			t.Fatalf("staged feed (depth %d, workers %d) differs from the sequential run", cfg.PipelineDepth, cfg.Workers)
		}
	}
}

// TestFeedIngestAllocs pins the feed's pooled ingest: once warm, cutting
// chunks off the feed and releasing them reuses frame buffers and view
// slices, so a pass allocates less than one 392-byte view — let alone a
// fresh frame copy and a decoded packet — per packet.
func TestFeedIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; allocation thresholds do not hold")
	}
	ds := testDS(t)
	const reps = 20
	n := reps * len(ds.Packets)
	frames := bytes.Repeat(encodeFrames(t, ds), reps)
	pass := func() (gets, reuses uint64, bytesPerPkt float64) {
		// A short queue keeps the readers a few chunks ahead of the
		// consumer, as a live feed's are, instead of swallowing the whole
		// trace before the first release.
		src := pushFeed(t, ds, frames, n, 64)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			ck, ok := src.Next(64, 0)
			if !ok {
				break
			}
			ck.ReleaseRef()
		}
		runtime.ReadMemStats(&after)
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		gets, reuses = src.pool.Stats()
		return gets, reuses, float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	gets, reuses, perPkt := pass()
	t.Logf("feed ingest: %d frame buffers requested, %d reused, %.0f B allocated per packet", gets, reuses, perPkt)
	if gets != uint64(n) || reuses < gets/2 {
		t.Errorf("pool reuse: %d of %d frame buffers came from the pool, want most", reuses, gets)
	}
	if perPkt > 300 {
		t.Errorf("feed ingest allocates %.0f B/packet, want under one fresh view (392 B) per packet", perPkt)
	}
}

// FuzzFeedFrame holds the feed frame parser to its contract on
// arbitrary bytes: it fails, or it returns the packet bytes of a frame
// whose length prefix n was within [8, MaxFrameBytes] — exactly n-8 of
// them, all present in the input, so a lying prefix can neither size a
// buffer past the cap nor yield bytes that were never sent.
func FuzzFeedFrame(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFrame(&good, time.Unix(1700000000, 0), []byte("frame")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:7])                              // cut inside the timestamp
	f.Add([]byte{0, 0, 0, 3})                            // below the 8-byte timestamp
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})       // 4 GiB prefix
	f.Add([]byte{0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // largest legal prefix, no body
	pool := pcap.NewBufferPool()
	f.Fuzz(func(t *testing.T, in []byte) {
		fr := &frameReader{r: bytes.NewReader(in), pool: pool}
		consumed := 0
		for {
			_, data, err := fr.next()
			if err != nil {
				if err == io.EOF && consumed != len(in) {
					t.Fatalf("bare EOF %d bytes short of a frame boundary", len(in)-consumed)
				}
				return
			}
			n := 8 + len(data)
			if n > MaxFrameBytes || consumed+4+n > len(in) {
				t.Fatalf("parsed a %d-byte frame from %d remaining input bytes", n, len(in)-consumed)
			}
			if !bytes.Equal(data, in[consumed+12:consumed+4+n]) {
				t.Fatal("packet bytes differ from the input's")
			}
			consumed += 4 + n
			pool.PutData(data)
		}
	})
}
