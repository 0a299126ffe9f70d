package lumen

import (
	"os"
	"path/filepath"
	"testing"

	"lumen/internal/algorithms"
	"lumen/internal/benchsuite"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/pcap"
)

// TestEndToEndPcapRoundTrip exercises the full stack the way a real
// deployment would: synthesize a dataset, write it to a pcap on disk,
// read it back, reattach ground truth, and train/evaluate an algorithm on
// the re-decoded packets. Scores on the round-tripped capture must match
// scores on the in-memory dataset exactly — the wire format is lossless
// for everything the feature pipelines consume.
func TestEndToEndPcapRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and writes files")
	}
	spec, ok := dataset.Get("F1")
	if !ok {
		t.Fatal("no F1")
	}
	ds := spec.Generate(0.3)

	// Write to disk.
	dir := t.TempDir()
	path := filepath.Join(dir, "f1.pcap")
	f, err := os.Create(path)
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

	// Read back and reattach labels positionally.
	loaded, err := dataset.LoadPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Packets) != len(ds.Packets) {
		t.Fatalf("round trip lost packets: %d vs %d", len(loaded.Packets), len(ds.Packets))
	}
	loaded.Name, loaded.Granularity = "f1-from-pcap", ds.Granularity
	loaded.Labels, loaded.Attacks = ds.Labels, ds.Attacks

	alg, _ := algorithms.Get("A14")
	score := func(d *dataset.Labeled) (float64, float64) {
		tr, te := benchsuite.InterleaveSplit(d)
		eng := core.NewEngine(alg.Pipeline)
		eng.Seed = 99
		if err := eng.Train(tr); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Test(te)
		if err != nil {
			t.Fatal(err)
		}
		return mlkit.Precision(res.Truth, res.Pred), mlkit.Recall(res.Truth, res.Pred)
	}
	pMem, rMem := score(ds)
	pDisk, rDisk := score(loaded)
	if pMem != pDisk || rMem != rDisk {
		t.Errorf("scores differ across the wire: mem %.4f/%.4f vs disk %.4f/%.4f",
			pMem, rMem, pDisk, rDisk)
	}
	if pMem < 0.8 {
		t.Errorf("precision %.3f unexpectedly low", pMem)
	}
}

// TestFaithfulnessMatrix verifies the suite's faithful-run rules across
// every algorithm × dataset pair without training anything: connection
// algorithms never see packet-labelled data, and only Kitsune touches the
// 802.11 corpus (paper §2.1 and Obs. 4).
func TestFaithfulnessMatrix(t *testing.T) {
	s, err := benchsuite.New(benchsuite.Config{Scale: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.RunSameDataset()
	seen := map[string]map[string]bool{}
	for _, r := range s.Store.Results {
		if seen[r.Alg] == nil {
			seen[r.Alg] = map[string]bool{}
		}
		seen[r.Alg][r.TrainDS] = true
	}
	for _, alg := range s.Algorithms() {
		got := seen[alg.ID]
		switch alg.Granularity() {
		case dataset.ConnectionG, dataset.UniflowG:
			for _, p := range dataset.PacketIDs() {
				if got[p] {
					t.Errorf("%s (flow-level) ran on packet-labelled %s", alg.ID, p)
				}
			}
			for _, f := range dataset.ConnectionIDs() {
				if !got[f] {
					t.Errorf("%s should run on %s", alg.ID, f)
				}
			}
		case dataset.Packet:
			if alg.ID == "A06" {
				if !got["P2"] {
					t.Error("Kitsune must run on AWID3")
				}
			} else if got["P2"] {
				t.Errorf("%s must not run on AWID3 (no IP layer)", alg.ID)
			}
			// Packet algorithms can propagate connection labels down.
			if !got["F1"] {
				t.Errorf("%s should run on connection-labelled F1", alg.ID)
			}
		}
	}
}
