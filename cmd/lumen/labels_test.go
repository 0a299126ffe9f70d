package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lumen/internal/dataset"
	"lumen/internal/pcap"
	"lumen/internal/report"
)

// writeFixture generates a small dataset and writes the pcap + label CSV
// through the same code paths pcapgen uses.
func writeFixture(t *testing.T) (pcapPath, labelPath string, ds *dataset.Labeled) {
	t.Helper()
	spec, _ := dataset.Get("P0")
	ds = spec.Generate(0.15)
	dir := t.TempDir()
	pcapPath = filepath.Join(dir, "x.pcap")
	labelPath = filepath.Join(dir, "x.csv")

	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(f, ds.Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Packets {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	csv := "index,label,attack\n"
	for i := range ds.Packets {
		lab := "0"
		if ds.Labels[i] != 0 {
			lab = "1"
		}
		csv += itoa(i) + "," + lab + "," + ds.Attacks[i] + "\n"
	}
	if err := os.WriteFile(labelPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return pcapPath, labelPath, ds
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestLoadLabeledPcapRoundTrip(t *testing.T) {
	pcapPath, labelPath, want := writeFixture(t)
	got, err := LoadLabeledPcap(pcapPath, labelPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(want.Packets) {
		t.Fatalf("packets %d, want %d", len(got.Packets), len(want.Packets))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
		if got.Attacks[i] != want.Attacks[i] {
			t.Fatalf("attack %d = %q, want %q", i, got.Attacks[i], want.Attacks[i])
		}
	}
	if got.MaliciousFraction() == 0 {
		t.Error("labels all benign after load")
	}
}

func TestLoadLabeledPcapWithoutLabels(t *testing.T) {
	pcapPath, _, _ := writeFixture(t)
	got, err := LoadLabeledPcap(pcapPath, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range got.Labels {
		if l != 0 {
			t.Fatalf("packet %d labelled %d without a label file", i, l)
		}
	}
}

func TestLoadLabeledPcapBadRows(t *testing.T) {
	pcapPath, _, _ := writeFixture(t)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("index,label,attack\n999999,1,x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLabeledPcap(pcapPath, bad); err == nil {
		t.Error("out-of-range index should error")
	}
	bad2 := filepath.Join(dir, "bad2.csv")
	if err := os.WriteFile(bad2, []byte("0,notanumber,x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLabeledPcap(pcapPath, bad2); err == nil {
		t.Error("non-numeric label should error")
	}
}

// TestREADMEFlagTable pins README.md's "lumen flags" table to the
// FlagSet flags declares: paste what the failure prints between the
// markers.
func TestREADMEFlagTable(t *testing.T) {
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := report.FlagTable("lumen", flags(new(options)))
	if !bytes.Contains(doc, []byte(want)) {
		t.Errorf("README.md's lumen flag table is stale; it should read:\n%s", want)
	}
}
