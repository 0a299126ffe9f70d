package core

import (
	"encoding/binary"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// dot11Frame is one 802.11 frame sent at second sec by transmitter
// 02:00:<tx as 4 bytes>.
func dot11Frame(t testing.TB, subtype netpkt.Dot11Subtype, tx, sec int) refFrame {
	t.Helper()
	d := &netpkt.Dot11{Subtype: subtype, Addr1: netpkt.MAC{2, 9, 9, 9, 9, 9}, Addr2: netpkt.MAC{2, 0}}
	binary.BigEndian.PutUint32(d.Addr2[2:], uint32(tx))
	raw, err := (&netpkt.Packet{Dot11: d, Payload: []byte{7, 0}}).Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return refFrame{link: netpkt.LinkDot11, ts: time.Unix(int64(sec), 0), raw: raw}
}

// dot11Churn is a stream of n frames one second apart, each from a
// transmitter never seen before. The first is a deauthentication, the
// rest carry data.
func dot11Churn(t testing.TB, n int) []refFrame {
	out := make([]refFrame, n)
	out[0] = dot11Frame(t, netpkt.Dot11Deauth, 0, 0)
	for i := 1; i < n; i++ {
		out[i] = dot11Frame(t, netpkt.Dot11Data, i, i)
	}
	return out
}

// dot11Reference is dot11_features as it was before it swept: every
// transmitter's trackers kept for the whole trace.
func dot11Reference(frames []refFrame, lam float64) [][]float64 {
	n := len(frames)
	f := &dot11Fill{
		subtype: make([]float64, n), mgmt: make([]float64, n), retry: make([]float64, n),
		duration: make([]float64, n), rate: make([]float64, n), deauthRate: make([]float64, n), plen: make([]float64, n),
		perTx: map[netpkt.MAC]*dot11Tx{}, lam: lam,
	}
	for i, v := range viewsOf(frames) {
		if p := v.Materialize(); p.Dot11 != nil {
			f.fold(i, p.Dot11, pktTime(p.Ts), float64(len(p.Payload)))
		}
	}
	return [][]float64{f.subtype, f.mgmt, f.retry, f.duration, f.rate, f.deauthRate, f.plen}
}

// TestDot11FeaturesUnchangedBySweep: on the 802.11 dataset, whole and at
// every chunking, the op's columns equal the never-evicting reference's
// bit for bit, with the sweep compiled in: the trace idles no transmitter
// long enough to evict.
func TestDot11FeaturesUnchangedBySweep(t *testing.T) {
	spec, _ := dataset.Get("P2")
	ds := spec.Generate(1)
	frames := datasetFrames(ds, len(ds.Packets))
	want := dot11Reference(frames, 0.5)
	for _, chunk := range []int{0, 1, 64, 512} {
		m := obs.NewMetrics()
		sameBits(t, "P2", chunkedRun(t, opDot11Features, frames, chunk, params{}, m), want)
		if n := m.Counter("lumen_dot11_streams_evicted_total", "").Value(); n != 0 {
			t.Fatalf("P2 evicted %d transmitters; the comparison needs a trace that evicts none", n)
		}
		if live := m.Gauge("lumen_dot11_streams", "").Value(); live == 0 {
			t.Fatal("lumen_dot11_streams reads 0 after a pass over 802.11 traffic")
		}
	}
}

// TestDot11EvictionBoundsState: ever-new transmitters, each active for
// one frame, spread over ~500 eviction horizons (λ = 1: 64 s) leave only
// the transmitters of the last horizon behind; every other one is
// counted as evicted; the columns do not depend on chunk size; and a
// transmitter that returns after it was dropped starts afresh, where the
// never-evicting reference still reports the deauthentication it sent
// nine hours earlier.
func TestDot11EvictionBoundsState(t *testing.T) {
	const n = 2 * streamSweepEvery
	frames := dot11Churn(t, n)
	// The very first transmitter comes back at the end, long evicted.
	frames[n-1] = dot11Frame(t, netpkt.Dot11Data, 0, n-1)
	p := params{"lambda": 1.0}

	m := obs.NewMetrics()
	want := chunkedRun(t, opDot11Features, frames, 512, p, m)
	live := m.Gauge("lumen_dot11_streams", "").Value()
	evicted := m.Counter("lumen_dot11_streams_evicted_total", "").Value()
	// 65 frames lie within 64 s of the last one, which the last sweep ran at.
	if live != 65 {
		t.Errorf("%v transmitters live after the last sweep, want the 65 of one horizon", live)
	}
	// n-1 distinct transmitters, the first one's trackers created twice.
	if evicted+uint64(live) != n {
		t.Errorf("evicted %d + live %v transmitters, want the %d ever created", evicted, live, n)
	}
	for _, chunk := range []int{0, 1, 64} {
		sameBits(t, "chunk size under eviction", chunkedRun(t, opDot11Features, frames, chunk, p, nil), want)
	}

	const txRate, deauthRate = 4, 5
	if r, d := want[txRate][n-1], want[deauthRate][n-1]; r != 1 || d != 0 {
		t.Errorf("returning transmitter's rates = %v frames, %v deauths; want 1 and 0: its trackers were dropped", r, d)
	}
	ref := dot11Reference(frames, 1)
	if d := ref[deauthRate][n-1]; d != 1 {
		t.Errorf("the never-evicting reference's deauth rate = %v, want the 1 it never lets fade", d)
	}
	for j := range want {
		want[j], ref[j] = want[j][:n-1], ref[j][:n-1]
	}
	sameBits(t, "every frame but the returning one", want, ref)
}
