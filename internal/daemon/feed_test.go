package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
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
		{ChunkRows: 64, PipelineDepth: 2},
		{ChunkRows: 64, PipelineDepth: 4},
	} {
		if got := run(cfg); !reflect.DeepEqual(seq, got) {
			t.Fatalf("staged feed (depth %d) differs from the depth-0 run", cfg.PipelineDepth)
		}
	}
}

// TestFeedSharedLabelsStayZero: every feed chunk carries sub-slices of
// the same two source-owned Labels/Attacks slices, so nothing downstream
// may write to them. After the runs TestFeedStagedMatchesSequential makes
// (depth 0 and staged) they must still be all zero.
func TestFeedSharedLabelsStayZero(t *testing.T) {
	ds := testDS(t)
	frames := encodeFrames(t, ds)
	eng := trainedEngine(t, ds)
	for _, cfg := range []core.StreamConfig{
		{ChunkRows: 64},
		{ChunkRows: 64, PipelineDepth: 2},
		{ChunkRows: 64, PipelineDepth: 4},
	} {
		src := pushFeed(t, ds, frames, len(ds.Packets), 256)
		if _, err := eng.RunStream(src, core.ModeTest, cfg); err != nil {
			t.Fatal(err)
		}
		if len(src.labels) == 0 || len(src.attacks) != len(src.labels) {
			t.Fatalf("the feed handed out %d shared labels and %d attacks", len(src.labels), len(src.attacks))
		}
		for i := range src.labels {
			if src.labels[i] != 0 || src.attacks[i] != "" {
				t.Fatalf("depth %d: shared row %d was written: label %d attack %q", cfg.PipelineDepth, i, src.labels[i], src.attacks[i])
			}
		}
	}
}

// TestFeedIngestAllocs pins the feed's steady state: once warm, cutting
// chunks off the feed and releasing them allocates one small Chunk.Ref a
// chunk and nothing per packet, and the readers fill slabs the released
// chunks handed back rather than fresh ones.
func TestFeedIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; allocation thresholds do not hold")
	}
	ds := testDS(t)
	const reps = 200
	per := len(ds.Packets)
	n := reps * per
	src := pushFeed(t, ds, bytes.Repeat(encodeFrames(t, ds), reps), n, 0)
	tally := slabTally{seen: map[*feedSlab]bool{}}
	drain := func(upTo int) {
		for src.seen < upTo {
			ck, ok := src.Next(64, 0)
			if !ok {
				t.Fatalf("stream ended after %d of %d packets", src.seen, n)
			}
			tally.add(ck)
			ck.ReleaseRef()
		}
	}
	drain(2 * per) // warm: view slices pooled, shared labels grown, slabs in rotation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := src.seen
	drain(n)
	runtime.ReadMemStats(&after)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(n-warm)
	t.Logf("feed ingest: %.4f allocations/packet, %d slabs filled, %d reused", perPkt, tally.fills, tally.reuses)
	if perPkt > 0.05 {
		t.Errorf("warm feed ingest makes %.4f allocations/packet, want at most 0.05", perPkt)
	}
	if tally.fills < 4 || tally.reuses < tally.fills/2 {
		t.Errorf("slab reuse: %d of %d slabs came from the pool, want most of several", tally.reuses, tally.fills)
	}
}

// slabTally counts, over the chunks cut from one producer's frames, the
// slabs its reader filled and the fills that reused a slab already seen.
// The reader takes its next slab before it lets the last one go, so two
// fills in a row are never the same slab.
type slabTally struct {
	last          *feedSlab
	seen          map[*feedSlab]bool
	fills, reuses int
}

func (s *slabTally) add(ck dataset.Chunk) {
	ref, ok := ck.Ref.(*feedRef)
	if !ok {
		return
	}
	for _, sl := range ref.slabs {
		if sl == s.last {
			continue
		}
		s.last = sl
		s.fills++
		if s.seen[sl] {
			s.reuses++
		}
		s.seen[sl] = true
	}
}

// pieceReader hands out its pieces one Read each — the way a socket
// delivers a stream in arrival-sized reads.
type pieceReader [][]byte

func (p *pieceReader) Read(b []byte) (int, error) {
	for len(*p) > 0 && len((*p)[0]) == 0 {
		*p = (*p)[1:]
	}
	if len(*p) == 0 {
		return 0, io.EOF
	}
	n := copy(b, (*p)[0])
	(*p)[0] = (*p)[0][n:]
	return n, nil
}

// slabFrames parses r to its end with the in-place framer over pool's
// slabs, cutting each batch into views the way Next does, and checks the
// slab lifetime on the way: once every batch is cut and released and the
// framer closed, no slab it touched is still referenced.
func slabFrames(t testing.TB, r io.Reader, pool *slabPool) ([]refFrame, error) {
	t.Helper()
	f := slabFramer{r: r, pool: pool}
	views := pcap.NewBufferPool()
	seen := map[*feedSlab]bool{}
	var out []refFrame
	for {
		b, err := f.next()
		if err != nil {
			f.close()
			for s := range seen {
				if n := s.refs.Load(); n != 0 {
					t.Fatalf("a slab is left with %d references after its last user", n)
				}
			}
			return out, err
		}
		seen[b.slab] = true
		ref := &feedRef{pool: views}
		want := b.n
		ref.cut(&b, netpkt.LinkEthernet, math.MaxInt, math.MaxInt)
		if len(ref.views) != want || b.n != 0 {
			t.Fatalf("a batch of %d frames cut into %d views, %d left", want, len(ref.views), b.n)
		}
		for i := range ref.views {
			out = append(out, refFrame{ref.views[i].Ts, append([]byte(nil), ref.views[i].Data...)})
		}
		ref.Release()
	}
}

// sameFrames requires the in-place framer's outcome to equal the
// reference reader's: the same frames, then the same error.
func sameFrames(t testing.TB, what string, got []refFrame, gotErr error, want []refFrame, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames (then %v), the reference reader gets %d (then %v)", what, len(got), gotErr, len(want), wantErr)
	}
	for i := range got {
		if !got[i].ts.Equal(want[i].ts) || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("%s: frame %d differs from the reference reader's", what, i)
		}
	}
	if gotErr.Error() != wantErr.Error() || (gotErr == io.EOF) != (wantErr == io.EOF) {
		t.Fatalf("%s: ended with %q, the reference reader with %q", what, gotErr, wantErr)
	}
}

// TestFeedFramerSplitSweep holds the in-place framer to the reference
// reader on one frame stream under every arrival pattern that matters:
// cut off at every byte (the truncation sweep), split across two reads at
// every byte, and dribbled a byte a read — over slabs small enough that
// frames straddle a slab change, fill a slab exactly and outgrow one.
func TestFeedFramerSplitSweep(t *testing.T) {
	var buf bytes.Buffer
	for i, size := range []int{0, 1, 20, 52, 100, 7, 30, 3, 52, 52} { // 52 + 12 fills a 64-byte slab
		pkt := bytes.Repeat([]byte{byte('a' + i)}, size)
		if err := WriteFrame(&buf, time.Unix(1700000000, int64(i)), pkt); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	whole, wholeErr := refFrames(bytes.NewReader(stream))
	if len(whole) != 10 || wholeErr != io.EOF {
		t.Fatalf("reference reader: %d frames, %v", len(whole), wholeErr)
	}
	for _, size := range []int{64, 100, feedSlabBytes} {
		pool := &slabPool{size: size}
		for i := 0; i <= len(stream); i++ {
			got, err := slabFrames(t, &pieceReader{stream[:i], stream[i:]}, pool)
			sameFrames(t, "split", got, err, whole, wholeErr)

			want, wantErr := refFrames(bytes.NewReader(stream[:i]))
			got, err = slabFrames(t, &pieceReader{stream[:i]}, pool)
			sameFrames(t, "truncated", got, err, want, wantErr)
		}
		var bytewise pieceReader
		for i := range stream {
			bytewise = append(bytewise, stream[i:i+1])
		}
		got, err := slabFrames(t, &bytewise, pool)
		sameFrames(t, "bytewise", got, err, whole, wholeErr)
	}
}

// seqPacket is a test payload that names its producer and its place in
// that producer's stream, padded to size (at least 5) with a byte that
// follows from both.
func seqPacket(producer byte, seq uint32, size int) []byte {
	b := bytes.Repeat([]byte{producer ^ byte(seq)}, size)
	b[0] = producer
	binary.BigEndian.PutUint32(b[1:], seq)
	return b
}

// produceSeq pushes seqPackets [from, to) of one producer down c through
// the buffered writer every real producer uses.
func produceSeq(t testing.TB, c net.Conn, producer byte, from, to uint32, size int) {
	t.Helper()
	bw := bufio.NewWriter(c)
	for seq := from; seq < to; seq++ {
		if err := WriteFrame(bw, time.Unix(0, int64(seq)), seqPacket(producer, seq, size)); err != nil {
			t.Error(err)
			return
		}
	}
	if err := bw.Flush(); err != nil {
		t.Error(err)
	}
}

// dialFeed connects one more producer to src.
func dialFeed(t testing.TB, src *FeedSource) net.Conn {
	t.Helper()
	c, err := net.Dial(src.Addr().Network(), src.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFeedJumboFrames: a frame larger than a slab gets a slab of its own
// size, up to exactly MaxFrameBytes, and the frames around it are
// neither lost nor shifted.
func TestFeedJumboFrames(t *testing.T) {
	src, c := feedPair(t)
	sizes := []int{60, feedSlabBytes + 4096, 5, MaxFrameBytes - 8, 90}
	go func() {
		defer c.Close()
		for i, size := range sizes {
			if err := WriteFrame(c, time.Unix(0, int64(i)), seqPacket('j', uint32(i), size)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if err := WriteFrame(io.Discard, time.Time{}, make([]byte, MaxFrameBytes-7)); err == nil {
		t.Error("WriteFrame accepted a packet one byte past the frame cap")
	}
	for i := 0; i < len(sizes); {
		ck, ok := src.Next(2, 0)
		if !ok {
			t.Fatalf("stream ended after %d of %d frames", i, len(sizes))
		}
		for j := range ck.Views {
			if !bytes.Equal(ck.Views[j].Data, seqPacket('j', uint32(i), sizes[i])) || ck.Views[j].Ts.UnixNano() != int64(i) {
				t.Fatalf("frame %d (%d bytes) arrived damaged (%d bytes)", i, sizes[i], len(ck.Views[j].Data))
			}
			i++
		}
		ck.ReleaseRef()
	}
	src.Drain()
	if err, faults := src.Err(), src.ConnErrors(); err != nil || faults != nil {
		t.Fatalf("clean jumbo feed reported error %v, connection faults %v", err, faults)
	}
}

// TestFeedProducerIsolation runs three producers at once, one of which
// sends a corrupt prefix mid-stream: the other two deliver every frame,
// each producer's frames arrive in its own order, the faulty one delivers
// exactly the frames it completed before the fault, and the fault is
// counted against the connection, not the source.
func TestFeedProducerIsolation(t *testing.T) {
	const n, goodBefore = 3000, 1200
	src, c0 := feedPair(t)
	conns := []net.Conn{c0, dialFeed(t, src), dialFeed(t, src)}
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(id byte, c net.Conn) {
			defer wg.Done()
			defer c.Close()
			if id != 1 {
				produceSeq(t, c, id, 0, n, 40+int(id))
				return
			}
			produceSeq(t, c, id, 0, goodBefore, 41)
			// The source hangs up at the bad prefix; the frames behind it
			// may or may not fit the socket first, so their write errors
			// are not the test's.
			bw := bufio.NewWriter(c)
			bw.Write([]byte{0xff, 0xff, 0xff, 0xff})
			for seq := uint32(goodBefore); seq < n; seq++ {
				WriteFrame(bw, time.Unix(0, int64(seq)), seqPacket(id, seq, 41))
			}
			bw.Flush()
		}(byte(i), c)
	}
	var next [3]uint32
	for got := 0; got < 2*n+goodBefore; {
		ck, ok := src.Next(256, 0)
		if !ok {
			t.Fatalf("stream ended after %d of %d frames", got, 2*n+goodBefore)
		}
		for i := range ck.Views {
			d := ck.Views[i].Data
			id := d[0]
			if seq := binary.BigEndian.Uint32(d[1:]); id > 2 || seq != next[id] || !bytes.Equal(d, seqPacket(id, seq, 40+int(id))) {
				t.Fatalf("producer %d: got frame %d (%d bytes), want its frame %d", id, seq, len(d), next[id])
			}
			next[id]++
		}
		got += ck.Len()
		ck.ReleaseRef()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "the fault to be counted", func() bool { return src.ConnErrors() != nil })
	src.Drain()
	for {
		ck, ok := src.Next(256, 0)
		if !ok {
			break
		}
		if ck.Len() > 0 {
			t.Fatalf("%d frames arrived from behind the corrupt prefix", ck.Len())
		}
	}
	if next != [3]uint32{n, goodBefore, n} {
		t.Fatalf("frames delivered per producer %v, want [%d %d %d]", next, n, goodBefore, n)
	}
	if faults := src.ConnErrors(); len(faults) != 1 || faults["length"] != 1 {
		t.Fatalf("connection faults %v, want one of reason length", faults)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("one producer's fault failed the source: %v", err)
	}
}

// TestFeedHeldChunksKeepTheirBytes holds chunks unreleased while the
// reader keeps filling and the consumer keeps releasing — the staged
// pipeline's situation, stretched: a held chunk's slabs stay referenced
// and its view bytes never change, however many slabs cycle through the
// pool meanwhile. Under -race a slab handed back to the reader early
// would also show as a write racing these reads.
func TestFeedHeldChunksKeepTheirBytes(t *testing.T) {
	const n, size = 4000, 1000 // ≈ 4 MB: some sixteen slabs
	src, c := feedPair(t)
	go func() {
		defer c.Close()
		produceSeq(t, c, 'h', 0, n, size)
	}()
	type held struct {
		ck   dataset.Chunk
		from uint32
	}
	var kept []held
	tally := slabTally{seen: map[*feedSlab]bool{}}
	check := func(ck dataset.Chunk, from uint32) {
		t.Helper()
		for i := range ck.Views {
			if !bytes.Equal(ck.Views[i].Data, seqPacket('h', from+uint32(i), size)) {
				t.Fatalf("frame %d changed under a chunk that still holds it", from+uint32(i))
			}
		}
	}
	for seen, chunk := 0, 0; seen < n; chunk++ {
		ck, ok := src.Next(64, 0)
		if !ok {
			t.Fatalf("stream ended after %d of %d frames", seen, n)
		}
		check(ck, uint32(seen))
		tally.add(ck)
		if chunk%5 == 0 && len(kept) < 4 { // ≈ 64 KB a chunk: each kept one lies in another slab
			kept = append(kept, held{ck, uint32(seen)})
		} else {
			ck.ReleaseRef()
		}
		seen += ck.Len()
	}
	src.Drain()
	src.readers.Wait()
	if tally.fills < 8 {
		t.Fatalf("only %d slabs were filled: nothing cycled while the chunks were held", tally.fills)
	}
	var slabs []*feedSlab
	for _, h := range kept {
		check(h.ck, h.from)
		for _, s := range h.ck.Ref.(*feedRef).slabs {
			if s.refs.Load() < 1 {
				t.Fatal("a slab under an unreleased chunk has no reference left")
			}
			slabs = append(slabs, s)
		}
	}
	for _, h := range kept {
		h.ck.ReleaseRef()
	}
	for _, s := range slabs {
		if n := s.refs.Load(); n != 0 {
			t.Fatalf("a slab keeps %d references after its last chunk was released", n)
		}
	}
}

// TestWriteFrameBufio: through a *bufio.Writer WriteFrame builds the
// header in the writer's buffer and allocates nothing; the bytes are
// those of the plain path, whether or not the header forced a flush.
func TestWriteFrameBufio(t *testing.T) {
	ts := time.Unix(1700000000, 123456789)
	pkts := [][]byte{[]byte("frame"), nil, bytes.Repeat([]byte{7}, 5000), []byte("x")}
	var plain bytes.Buffer
	for _, pkt := range pkts {
		if err := WriteFrame(&plain, ts, pkt); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{8, 12, 16, 30, 1 << 16} { // 8: no room for a header, so the plain path
		var out bytes.Buffer
		bw := bufio.NewWriterSize(&out, size)
		for _, pkt := range pkts {
			if err := WriteFrame(bw, ts, pkt); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), plain.Bytes()) {
			t.Fatalf("through a %d-byte bufio.Writer the frames differ from the plain path's", size)
		}
	}
	bw := bufio.NewWriterSize(io.Discard, 1<<16)
	pkt := make([]byte, 100)
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(bw, ts, pkt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteFrame through a bufio.Writer allocates %v times a call, want 0", allocs)
	}
}

// TestFeedConnErrorsSurface: a pipeline over a feed shows a faulted
// producer in its status and in lumen_feed_conn_errors_total, and stops
// cleanly afterwards — the fault was the connection's, not the
// pipeline's.
func TestFeedConnErrorsSurface(t *testing.T) {
	ds := testDS(t)
	src, c := feedPair(t)
	d := New(Config{Metrics: obs.NewMetrics()})
	p, err := d.Start(PipeConfig{Name: "live", Engine: trainedEngine(t, ds), Source: src, Stream: core.StreamConfig{ChunkRows: 64}})
	if err != nil {
		t.Fatal(err)
	}
	frames := encodeFrames(t, ds)
	if _, err := c.Write(frames[:len(frames)-3]); err != nil { // the last frame is cut short
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, 5*time.Second, "the truncated frame to be counted", func() bool { return p.Status().FeedConnErrors["truncated"] == 1 })
	waitFor(t, 5*time.Second, "the whole frames to be scored", func() bool { return p.Status().Packets == int64(len(ds.Packets)-1) })
	var prom strings.Builder
	if err := d.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`lumen_feed_conn_errors_total{pipeline="live",reason="truncated"} 1`,
		`lumen_feed_conn_errors_total{pipeline="live",reason="length"} 0`,
	} {
		if !strings.Contains(prom.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("a producer fault failed the pipeline: %v", err)
	}
	if st := p.Status(); st.State != StateStopped.String() {
		t.Fatalf("pipeline ended %s (%s)", st.State, st.Error)
	}
}

// FuzzFeedFrame holds the in-place frame parser to its contract on
// arbitrary bytes: it fails, or it returns the packet bytes of a frame
// whose length prefix n was within [8, MaxFrameBytes] — exactly n-8 of
// them, all present in the input, so a lying prefix can neither size a
// buffer past the cap nor yield bytes that were never sent — and it ends
// bare io.EOF only on a frame boundary. Each input is parsed twice, in
// one read over full-size slabs and dribbled in input-dependent pieces
// over 64-byte ones, and both must match the per-frame reader the framer
// replaced (refFrameReader) frame for frame and error for error.
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
	f.Add(bytes.Repeat(good.Bytes(), 9))                 // several slab changes at 64 bytes
	full, small := &slabPool{size: feedSlabBytes}, &slabPool{size: 64}
	f.Fuzz(func(t *testing.T, in []byte) {
		want, wantErr := refFrames(bytes.NewReader(in))
		var dribble pieceReader
		for rest := in; len(rest) > 0; {
			n := min(1+int(rest[0]%23), len(rest))
			dribble = append(dribble, rest[:n])
			rest = rest[n:]
		}
		for _, run := range []struct {
			what string
			r    io.Reader
			pool *slabPool
		}{{"one read", bytes.NewReader(in), full}, {"dribbled", &dribble, small}} {
			got, err := slabFrames(t, run.r, run.pool)
			consumed := 0
			for _, fr := range got {
				n := 8 + len(fr.data)
				if n > MaxFrameBytes || consumed+4+n > len(in) || int(binary.BigEndian.Uint32(in[consumed:])) != n {
					t.Fatalf("%s: parsed a %d-byte frame from %d remaining input bytes", run.what, n, len(in)-consumed)
				}
				if !bytes.Equal(fr.data, in[consumed+12:consumed+4+n]) {
					t.Fatalf("%s: packet bytes differ from the input's", run.what)
				}
				consumed += 4 + n
			}
			if err == io.EOF && consumed != len(in) {
				t.Fatalf("%s: bare EOF %d bytes short of a frame boundary", run.what, len(in)-consumed)
			}
			sameFrames(t, run.what, got, err, want, wantErr)
		}
	})
}
