package daemon

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
	"lumen/internal/pcap"
)

// tinyTrace builds an n-packet dataset with timestamps spaced by gap,
// for pacing tests that need a controlled capture timeline.
func tinyTrace(n int, gap time.Duration) *dataset.Labeled {
	base := time.Unix(1700000000, 0).UTC()
	pkts := make([]*dataset.Record, n)
	for i := range pkts {
		pkts[i] = &dataset.Record{Ts: base.Add(time.Duration(i) * gap)}
	}
	return &dataset.Labeled{
		Name:        "tiny",
		Granularity: dataset.Packet,
		Link:        netpkt.LinkEthernet,
		Packets:     pkts,
		Labels:      make([]int, n),
		Attacks:     make([]string, n),
	}
}

// drainOf asserts src supports graceful drain and returns the hook.
func drainOf(t *testing.T, src dataset.Source) Drainer {
	t.Helper()
	d, ok := src.(Drainer)
	if !ok {
		t.Fatalf("%T does not implement Drainer", src)
	}
	return d
}

// TestReplaySourcePassthrough: unpaced replay forwards the inner stream
// unchanged and resets for another pass.
func TestReplaySourcePassthrough(t *testing.T) {
	ds := tinyTrace(10, time.Second)
	src := NewReplaySource(dataset.NewSliceSource(ds), 0, 0)
	for pass := 0; pass < 2; pass++ {
		total, base := 0, 0
		for {
			ck, ok := src.Next(3, 0)
			if !ok {
				break
			}
			if ck.Base != base {
				t.Fatalf("pass %d: chunk base %d, want %d", pass, ck.Base, base)
			}
			base += ck.Len()
			total += ck.Len()
		}
		if total != 10 {
			t.Fatalf("pass %d: replayed %d packets, want 10", pass, total)
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if m := src.Meta(); m.Name != "tiny" {
		t.Fatalf("meta passthrough broken: %+v", m)
	}
}

// TestReplaySourceDrainInterruptsPacing: a drain must cut a pacing sleep
// short instead of waiting out the capture timeline.
func TestReplaySourceDrainInterruptsPacing(t *testing.T) {
	// 1h between packets at speed 1 — Next would sleep an hour.
	src := NewReplaySource(dataset.NewSliceSource(tinyTrace(3, time.Hour)), 1, 0)
	if _, ok := src.Next(1, 0); !ok {
		t.Fatal("first chunk missing")
	}
	type res struct {
		ok      bool
		elapsed time.Duration
	}
	got := make(chan res, 1)
	go func() {
		start := time.Now()
		_, ok := src.Next(1, 0)
		got <- res{ok, time.Since(start)}
	}()
	time.Sleep(50 * time.Millisecond)
	drainOf(t, src).Drain()
	select {
	case r := <-got:
		if !r.ok {
			t.Fatal("the in-flight chunk must still be delivered on drain")
		}
		if r.elapsed > 10*time.Second {
			t.Fatalf("drain took %v to interrupt pacing", r.elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never interrupted the pacing sleep")
	}
	if _, ok := src.Next(1, 0); ok {
		t.Fatal("stream must end after drain")
	}
	// Reset re-arms the drained replay.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Next(0, 0); !ok {
		t.Fatal("reset after drain must replay again")
	}
}

// TestReplaySourceEmptyContract: a replay drained before its first chunk
// ends with no chunk; the engine runs the empty one.
func TestReplaySourceEmptyContract(t *testing.T) {
	src := NewReplaySource(dataset.NewSliceSource(tinyTrace(5, time.Second)), 0, 0)
	drainOf(t, src).Drain()
	if ck, ok := src.Next(0, 0); ok {
		t.Fatalf("want no chunk, got one of %d packets", ck.Len())
	}
}

// feedPair starts a FeedSource on a unix socket and connects a producer.
func feedPair(t *testing.T) (*FeedSource, net.Conn) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "feed.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Skipf("unix sockets unavailable: %v", err)
	}
	src := NewFeedSource("test-feed", ln, netpkt.LinkEthernet, 64)
	c, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	return src, c
}

// TestFeedSource pushes framed packets over a unix socket and verifies
// the source re-emits them as chunks with rebased indices, whose views
// materialize to the packets that were sent.
func TestFeedSource(t *testing.T) {
	ds := testDS(t)
	n := 50
	src, c := feedPair(t)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for _, p := range ds.Packets[:n] {
			if err := WriteFrame(c, p.Ts, p.Data); err != nil {
				t.Error(err)
				return
			}
		}
		c.Close()
	}()
	var pkts []*netpkt.Packet
	base := 0
	for len(pkts) < n {
		ck, ok := src.Next(16, 0)
		if !ok {
			t.Fatalf("stream ended after %d of %d packets", len(pkts), n)
		}
		if ck.Base != base {
			t.Fatalf("chunk base %d, want %d", ck.Base, base)
		}
		if len(ck.Labels) != ck.Len() || len(ck.Attacks) != ck.Len() {
			t.Fatal("feed chunks must carry zeroed labels")
		}
		base += ck.Len()
		for i := range ck.Views {
			pkts = append(pkts, ck.Views[i].Materialize())
		}
	}
	<-sent
	for i, p := range decodedPackets(ds.Link, ds.Packets[:n]) {
		if !reflect.DeepEqual(pkts[i], p) {
			t.Fatalf("packet %d arrived as %+v, want %+v", i, pkts[i], p)
		}
	}
	src.Drain()
	for {
		if _, ok := src.Next(16, 0); !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("clean feed reported error: %v", err)
	}
	if err := src.Reset(); err == nil {
		t.Fatal("live feeds must reject Reset")
	}
	if src.Addr() == nil {
		t.Fatal("feed must expose its listener address")
	}
}

// TestFeedSourceEmptyContract: an idle feed drained ends with no chunk;
// the engine runs the empty one.
func TestFeedSourceEmptyContract(t *testing.T) {
	src, c := feedPair(t)
	c.Close()
	src.Drain()
	if ck, ok := src.Next(0, 0); ok {
		t.Fatalf("want no chunk, got one of %d packets", ck.Len())
	}
}

// TestFeedSourceBadFrame: a length prefix outside the protocol bounds,
// or a stream that ends inside a frame, costs the producer its
// connection and is counted by reason — and costs nobody else anything:
// the frame it completed first still arrives, a second producer is
// served, and the source reports no error.
func TestFeedSourceBadFrame(t *testing.T) {
	var good bytes.Buffer
	if err := WriteFrame(&good, time.Unix(1700000000, 0), []byte("whole")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		reason string
		bad    []byte
		hangUp bool // the producer ends the stream itself
	}{
		{"length", []byte{0, 0, 0, 3}, false}, // length 3 < 8
		{"length", []byte{0, 0x40, 0, 1}, false},
		{"truncated", good.Bytes()[:2], true},
		{"truncated", good.Bytes()[:good.Len()-1], true},
	} {
		src, c := feedPair(t)
		m := obs.NewMetrics()
		src.bindMetrics(m, "p")
		if _, err := c.Write(append(good.Bytes(), tc.bad...)); err != nil {
			t.Fatal(err)
		}
		if tc.hangUp {
			c.Close()
		}
		waitFor(t, 5*time.Second, tc.reason+" fault", func() bool { return src.ConnErrors()[tc.reason] == 1 })
		if got := m.Counter("lumen_feed_conn_errors_total", "", "pipeline", "p", "reason", tc.reason).Value(); got != 1 {
			t.Fatalf("%s: lumen_feed_conn_errors_total reads %d, want 1", tc.reason, got)
		}
		if !tc.hangUp { // the source hung up on the producer
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("%s: the faulty producer's connection is still open (read: %v)", tc.reason, err)
			}
			c.Close()
		}
		healthy := dialFeed(t, src)
		for i := 0; i < 3; i++ {
			if err := WriteFrame(healthy, time.Unix(1700000001, 0), []byte("after")); err != nil {
				t.Fatal(err)
			}
		}
		healthy.Close()
		var got []string
		for len(got) < 4 {
			ck, ok := src.Next(16, 0)
			if !ok {
				t.Fatalf("%s: stream ended after %q", tc.reason, got)
			}
			for i := range ck.Views {
				got = append(got, string(ck.Views[i].Data))
			}
			ck.ReleaseRef()
		}
		if want := []string{"whole", "after", "after", "after"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: delivered %q, want %q", tc.reason, got, want)
		}
		src.Drain()
		if err := src.Err(); err != nil {
			t.Fatalf("%s: one producer's fault became the source's error: %v", tc.reason, err)
		}
		if faults := src.ConnErrors(); len(faults) != 1 {
			t.Fatalf("%s: connection faults %v, want the one", tc.reason, faults)
		}
	}
}

// writePcap writes pkts as a pcap file.
func writePcap(t testing.TB, path string, link netpkt.LinkType, pkts []*dataset.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := pcap.NewWriter(f, link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDirSource streams rotated captures from a watched directory:
// pre-existing files in name order, a file added mid-watch, packet
// indices rebased across files, and drain ending the stream.
func TestDirSource(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	writePcap(t, filepath.Join(dir, "trace-000.pcap"), ds.Link, ds.Packets[:30])
	writePcap(t, filepath.Join(dir, "trace-001.pcap"), ds.Link, ds.Packets[30:60])
	src := NewDirSource("watch", dir, "*.pcap", dataset.Packet, ds.Link, 5*time.Millisecond)
	if m := src.Meta(); m.Name != "watch" || m.Link != ds.Link {
		t.Fatalf("meta = %+v", m)
	}
	count, base := 0, 0
	pull := func(want int) {
		t.Helper()
		for count < want {
			ck, ok := src.Next(16, 0)
			if !ok {
				t.Fatalf("stream ended at %d of %d packets (err %v)", count, want, src.Err())
			}
			if ck.Base != base {
				t.Fatalf("chunk base %d, want %d (rebasing across files broken)", ck.Base, base)
			}
			base += ck.Len()
			count += ck.Len()
		}
	}
	pull(60)
	if got := src.DecodeMode(); got != "mmap+lazy" {
		t.Fatalf("watch DecodeMode = %q, want mmap+lazy", got)
	}
	// A capture rotated in after the watch started is picked up too.
	writePcap(t, filepath.Join(dir, "trace-002.pcap"), ds.Link, ds.Packets[60:80])
	pull(80)
	// Between two listings an idle poll walks nothing: no directory read,
	// no allocation, however many captures were consumed.
	src.Close()
	if n := testing.AllocsPerRun(10, func() { src.scan() }); !raceEnabled && n != 0 {
		t.Fatalf("an idle scan between listings allocates %v objects", n)
	}
	src.Drain()
	for {
		if _, ok := src.Next(16, 0); !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("clean watch reported error: %v", err)
	}
	if err := src.Reset(); err == nil {
		t.Fatal("directory watches must reject Reset")
	}
}

// TestDirSourceViewsRotationUnderLoad pins the refcounted-mapping
// contract of watch ingest: chunks cut from a mapped capture
// stay valid while the file is deleted out from under the watch AND the
// per-file reader is closed, and the mapping unmaps only when the last
// in-flight chunk releases its reference.
func TestDirSourceViewsRotationUnderLoad(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace-000.pcap")
	writePcap(t, path, ds.Link, ds.Packets[:40])
	n0 := pcap.OpenMappings()
	src := NewDirSource("watch", dir, "*.pcap", dataset.Packet, ds.Link, 5*time.Millisecond)
	src.ConfigureViews(true, netpkt.DecodeHint{Headers: true})
	if got := src.DecodeMode(); got != "idle" {
		t.Fatalf("DecodeMode before ingest = %q, want idle", got)
	}
	var live []dataset.Chunk
	count := 0
	for count < 40 {
		ck, ok := src.Next(8, 0)
		if !ok {
			t.Fatalf("stream ended at %d of 40 packets (err %v)", count, src.Err())
		}
		if ck.Len() > 0 && ck.Ref == nil {
			t.Fatal("watch chunks must carry a mapping reference")
		}
		count += ck.Len()
		live = append(live, ck)
	}
	if got := src.DecodeMode(); got != "mmap+lazy" {
		t.Fatalf("DecodeMode = %q, want mmap+lazy", got)
	}
	if got := pcap.OpenMappings(); got != n0+1 {
		t.Fatalf("live mappings = %d, want %d", got, n0+1)
	}
	// Rotate the file away while every chunk is still in flight, then
	// drain the watch (which closes the per-file reader). The mapping
	// must survive both: the kernel keeps mapped pages past unlink, and
	// the chunks' references keep it past the reader's Close.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	src.Drain()
	for {
		if _, ok := src.Next(8, 0); !ok {
			break
		}
	}
	if got := pcap.OpenMappings(); got != n0+1 {
		t.Fatalf("mapping dropped with chunks in flight: %d live, want %d", got, n0+1)
	}
	sum := 0
	for _, ck := range live {
		for i := range ck.Views {
			for _, b := range ck.Views[i].Data {
				sum += int(b)
			}
		}
	}
	if sum == 0 {
		t.Fatal("mapped bytes unreadable after rotation")
	}
	for _, ck := range live {
		src.Recycle(ck)
		ck.ReleaseRef()
	}
	if got := pcap.OpenMappings(); got != n0 {
		t.Fatalf("mappings after release = %d, want baseline %d", got, n0)
	}
}
