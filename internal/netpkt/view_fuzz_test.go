package netpkt

import (
	"reflect"
	"testing"
	"time"
)

// fuzzViewAgainstDecode is the shared differential property: for any
// input bytes, the lazy view must never panic, must materialize to
// exactly the packet the reference layer walk refDecode builds, and its
// own app-layer accessors must return refDecode's DNS, HTTP and MQTT
// layers value for value, at every predecode depth.
func fuzzViewAgainstDecode(t *testing.T, data []byte, link LinkType) {
	ts := time.Unix(1700000000, 0)
	want := refDecode(data, link, ts)
	for _, hint := range allHints() {
		var v PacketView
		v.Reset(data, link, ts)
		v.Predecode(hint)
		// Exercise the cheap accessors too: they must not disturb the
		// materialized result.
		_ = v.WireLen()
		_ = v.PayloadLen()
		_, _ = v.Tuple()
		_ = v.Summary()
		got := v.Materialize()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hint %+v: view and eager decode disagree:\nview:  %+v\neager: %+v", hint, got, want)
		}
		if d, ok := v.DNS(); ok != (want.DNS != nil) || ok && !reflect.DeepEqual(d, *want.DNS) {
			t.Fatalf("hint %+v: DNS() = %+v, %v; eager %+v", hint, d, ok, want.DNS)
		}
		if h, ok := v.HTTP(); ok != (want.HTTP != nil) || ok && !reflect.DeepEqual(h, *want.HTTP) {
			t.Fatalf("hint %+v: HTTP() = %+v, %v; eager %+v", hint, h, ok, want.HTTP)
		}
		if m, ok := v.MQTT(); ok != (want.MQTT != nil) || ok && !reflect.DeepEqual(m, *want.MQTT) {
			t.Fatalf("hint %+v: MQTT() = %+v, %v; eager %+v", hint, m, ok, want.MQTT)
		}
	}
}

// seedViewCorpus adds every corpus frame plus truncations that land
// inside each protocol header, so the fuzzer starts at the interesting
// boundaries instead of random bytes.
func seedViewCorpus(f *testing.F, link LinkType) {
	for _, c := range viewCorpus(f) {
		if c.link != link {
			continue
		}
		f.Add(c.raw)
		for _, cut := range []int{1, 13, 14, 20, 33, 34, 41, 42, 53, 54} {
			if cut < len(c.raw) {
				f.Add(c.raw[:cut])
			}
		}
	}
}

func FuzzViewEthernet(f *testing.F) {
	seedViewCorpus(f, LinkEthernet)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzViewAgainstDecode(t, data, LinkEthernet)
	})
}

func FuzzViewDot11(f *testing.F) {
	seedViewCorpus(f, LinkDot11)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzViewAgainstDecode(t, data, LinkDot11)
	})
}
