package flow

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lumen/internal/dataset"
	"lumen/internal/netpkt"
)

func TestWriteConnLog(t *testing.T) {
	pkts := handshake(t, 0)
	conns := Connections(pkts, Options{})
	var buf bytes.Buffer
	if err := WriteConnLog(&buf, conns); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+len(conns) {
		t.Fatalf("got %d lines, want header + %d rows", len(lines), len(conns))
	}
	if !strings.HasPrefix(lines[0], "#fields\tts\tuid") {
		t.Errorf("header = %q", lines[0])
	}
	row := lines[1]
	for _, want := range []string{"10.0.0.1", "1234", "10.0.0.2", "80", "tcp", "SF"} {
		if !strings.Contains(row, want) {
			t.Errorf("row missing %q: %s", want, row)
		}
	}
}

// TestConnLogWriterBatches: a section written a batch at a time, the
// first batch empty, equals WriteConnLog over the batches joined, and a
// section of no connection is its header.
func TestConnLogWriterBatches(t *testing.T) {
	f1, _ := dataset.Get("F1")
	conns := Connections(decoded(f1.Generate(0.5)), Options{})
	var want bytes.Buffer
	if err := WriteConnLog(&want, conns); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var got bytes.Buffer
	w := NewConnLogWriter(&got)
	for lo := 0; lo < len(conns); {
		hi := min(lo+rng.Intn(300), len(conns))
		if err := w.Log(conns[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("a section logged in batches differs from WriteConnLog over %d connections", len(conns))
	}
	got.Reset()
	if err := NewConnLogWriter(&got).Log(nil); err != nil || got.String() != connLogHeader {
		t.Errorf("an empty section is %q (%v), want the header", got.String(), err)
	}
}

func TestProtoString(t *testing.T) {
	for p, want := range map[uint8]string{netpkt.ProtoTCP: "tcp", netpkt.ProtoUDP: "udp", netpkt.ProtoICMP: "icmp", 42: "proto-42"} {
		if got := string(appendProto(nil, p)); got != want {
			t.Errorf("proto %d renders %q, want %q", p, got, want)
		}
	}
}

func TestMatchByTime(t *testing.T) {
	mk := func(sec float64) *Flow {
		return &Flow{First: time.Unix(0, int64(sec*1e9))}
	}
	a := []*Flow{mk(1.0), mk(5.0), mk(100)}
	b := []*Flow{mk(0.9), mk(5.2), mk(50)}
	got := MatchByTime(a, b, 500*time.Millisecond)
	if got[0] != 0 {
		t.Errorf("a[0] matched %d, want 0", got[0])
	}
	if got[1] != 1 {
		t.Errorf("a[1] matched %d, want 1", got[1])
	}
	if got[2] != -1 {
		t.Errorf("a[2] matched %d, want -1 (outside tolerance)", got[2])
	}
}
