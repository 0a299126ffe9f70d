// Command pcapinfo summarizes a pcap file: link type, packet count, time
// span, protocol mix and top talkers. With -connlog it instead emits a
// Zeek-style conn.log of the capture's bidirectional flows.
//
// Both passes run on the zero-copy decode fast path: the capture is
// memory-mapped when it is a regular file, chunks arrive as lazy
// netpkt.PacketView records whose layers decode on first touch, and the
// pipelined source stage (dataset.StartPump) reads ahead through a
// bounded channel and recycles chunk buffers once the aggregation loop
// releases them. Decode overlaps with counting and memory stays a few
// chunks deep however large the file is.
//
// Usage:
//
//	pcapinfo capture.pcap
//	pcapinfo -connlog capture.pcap > conn.log
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/netpkt"
)

// chunkRows bounds each decoded chunk; with the pump's default depth the
// process holds only a handful of these at any moment.
const chunkRows = 1024

func main() {
	connlog := flag.Bool("connlog", false, "emit a Zeek-style conn.log instead of a summary")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pcapinfo [-connlog] <file.pcap>")
		os.Exit(2)
	}
	var err error
	if *connlog {
		err = runConnlog(flag.Arg(0))
	} else {
		err = run(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcapinfo:", err)
		os.Exit(1)
	}
}

// pump opens path and starts the pipelined source stage over it, with
// the source emitting lazy view chunks predecoded to hint's depth. The
// caller must range over pump.C, call Done per chunk, then check Err;
// the returned closer releases the mapping and the file.
func pump(path string, hint netpkt.DecodeHint) (*dataset.Pump, *dataset.PcapSource, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	src, err := dataset.NewPcapSource(path, f, dataset.Packet)
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	src.ConfigureViews(true, hint)
	p := dataset.StartPump(src, dataset.PumpConfig{
		MaxRows: chunkRows,
		Depth:   2,
	})
	return p, src, func() { src.Close(); f.Close() }, nil
}

// runConnlog streams the capture through an incremental connection
// assembler — holding the connections open or waiting for release, never
// the packet list — and prints each connection as a conn.log TSV row
// once no earlier one can follow it, so the log comes out in batch order
// while the capture is read. Connections carry only counters, so chunk
// buffers are recycled as soon as each chunk has been fed to the
// assembler.
func runConnlog(path string) error {
	p, _, closef, err := pump(path, netpkt.DecodeHint{Headers: true})
	if err != nil {
		return err
	}
	defer closef()
	asm := flow.NewConnAssembler(flow.Options{})
	log := flow.NewConnLogWriter(os.Stdout)
	var done []*flow.Flow
	for nc := range p.C {
		for j := range nc.Views {
			sum := nc.Views[j].Summary()
			asm.Feed(&sum)
		}
		p.Done(nc)
		done = asm.Release(done[:0])
		if err := log.Log(done); err != nil {
			return err
		}
	}
	if err := p.Err(); err != nil {
		return err
	}
	return log.Log(asm.ReleaseAll(done[:0]))
}

// run makes a single pipelined pass over the capture, accumulating only
// counters — memory stays constant however large the file is, and the
// summary reports how much the pump actually buffered.
func run(path string) error {
	// The summary touches headers everywhere and DNS on port-53 packets;
	// deeper app parsing never runs.
	p, src, closef, err := pump(path, netpkt.DecodeHint{Headers: true, Apps: netpkt.AppDNS})
	if err != nil {
		return err
	}
	defer closef()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var first, last time.Time
	var packets, bytes int
	protos := map[string]int{}
	talkers := map[string]int{}
	for nc := range p.C {
		for i := range nc.Views {
			vw := &nc.Views[i]
			if packets == 0 {
				first = vw.Ts
			}
			last = vw.Ts
			packets++
			bytes += vw.WireLen()
			protos[protoNameView(vw)]++
			if ip := vw.SrcIP(); ip.IsValid() {
				talkers[ip.String()]++
			} else if d, ok := vw.Dot11(); ok {
				talkers[d.Addr2.String()]++
			}
		}
		p.Done(nc)
	}
	if err := p.Err(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	st := p.Stats()
	fmt.Printf("file:      %s\n", path)
	fmt.Printf("link type: %d\n", src.Meta().Link)
	fmt.Printf("decode:    %s", src.DecodeMode())
	if packets > 0 {
		fmt.Printf(" (%.1f allocs/pkt)", float64(ms1.Mallocs-ms0.Mallocs)/float64(packets))
	}
	fmt.Println()
	fmt.Printf("packets:   %d\n", packets)
	if packets == 0 {
		return nil
	}
	dur := last.Sub(first)
	fmt.Printf("span:      %s (%s .. %s)\n", dur, first.Format(time.RFC3339), last.Format(time.RFC3339))
	fmt.Printf("bytes:     %d", bytes)
	if dur > 0 {
		fmt.Printf(" (%.1f kbit/s)", float64(bytes)*8/dur.Seconds()/1000)
	}
	fmt.Println()
	fmt.Printf("buffered:  %d chunks of ≤%d packets, peak %d bytes in flight\n",
		st.Chunks, chunkRows, st.PeakInFlightBytes)
	fmt.Println("protocols:")
	for _, kv := range sorted(protos) {
		fmt.Printf("  %-8s %d\n", kv.k, kv.v)
	}
	fmt.Println("top talkers:")
	top := sorted(talkers)
	if len(top) > 10 {
		top = top[:10]
	}
	for _, kv := range top {
		fmt.Printf("  %-22s %d\n", kv.k, kv.v)
	}
	return nil
}

// protoNameView names a packet's innermost recognized protocol (the DNS
// check forces the app parse only on port-53 packets, which the pump's
// hint already predecodes).
func protoNameView(v *netpkt.PacketView) string {
	if d, ok := v.Dot11(); ok {
		if d.Subtype.IsManagement() {
			return "802.11m"
		}
		return "802.11d"
	}
	if _, ok := v.DNS(); ok {
		return "dns"
	}
	if _, ok := v.TCP(); ok {
		return "tcp"
	}
	if _, ok := v.UDP(); ok {
		return "udp"
	}
	if _, ok := v.ICMP(); ok {
		return "icmp"
	}
	if _, ok := v.ARP(); ok {
		return "arp"
	}
	return "other"
}

type kv struct {
	k string
	v int
}

func sorted(m map[string]int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].v != out[b].v {
			return out[a].v > out[b].v
		}
		return out[a].k < out[b].k
	})
	return out
}
