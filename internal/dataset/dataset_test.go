package dataset

import (
	"testing"

	"lumen/internal/flow"
	"lumen/internal/netpkt"
)

func TestRegistryShape(t *testing.T) {
	specs := Registry()
	if len(specs) != 15 {
		t.Fatalf("registry has %d datasets, want 15 (10 connection + 5 packet)", len(specs))
	}
	nConn, nPkt := 0, 0
	for _, s := range specs {
		switch s.Granularity {
		case ConnectionG:
			nConn++
		case Packet:
			nPkt++
		}
		if s.ID == "" || s.Desc == "" || s.Generate == nil || len(s.Attacks) == 0 {
			t.Errorf("spec %q incomplete", s.ID)
		}
	}
	if nConn != 10 || nPkt != 5 {
		t.Errorf("granularity mix %d conn / %d pkt, want 10/5", nConn, nPkt)
	}
}

func TestGetKnownAndUnknown(t *testing.T) {
	if _, ok := Get("F5"); !ok {
		t.Error("F5 should exist")
	}
	if _, ok := Get("nope"); ok {
		t.Error("unknown ID should not resolve")
	}
}

func TestEveryDatasetGenerates(t *testing.T) {
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			ds := spec.Generate(0.3)
			if len(ds.Packets) < 100 {
				t.Fatalf("%s: only %d packets", spec.ID, len(ds.Packets))
			}
			if len(ds.Labels) != len(ds.Packets) || len(ds.Attacks) != len(ds.Packets) {
				t.Fatalf("%s: label/attack slices misaligned", spec.ID)
			}
			frac := ds.MaliciousFraction()
			if frac <= 0.02 || frac >= 0.9 {
				t.Errorf("%s: malicious fraction %.3f outside (0.02, 0.9)", spec.ID, frac)
			}
			// Time ordering (flow assembly depends on it).
			for i := 1; i < len(ds.Packets); i++ {
				if ds.Packets[i].Ts.Before(ds.Packets[i-1].Ts) {
					t.Fatalf("%s: packets out of time order at %d", spec.ID, i)
				}
			}
			// Declared attacks actually appear.
			got := map[string]bool{}
			for _, a := range ds.AttackSet() {
				got[a] = true
			}
			for _, want := range spec.Attacks {
				if !got[want] {
					t.Errorf("%s: declared attack %q absent from trace", spec.ID, want)
				}
			}
			// Raw bytes present and decodable for every packet.
			for i, p := range ds.Packets {
				if len(p.Data) == 0 {
					t.Fatalf("%s: packet %d has no wire bytes", spec.ID, i)
				}
			}
		})
	}
}

func TestGenerationDeterministic(t *testing.T) {
	spec, _ := Get("F1")
	a := spec.Generate(0.3)
	b := spec.Generate(0.3)
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if !a.Packets[i].Ts.Equal(b.Packets[i].Ts) || a.Labels[i] != b.Labels[i] {
			t.Fatalf("run differs at packet %d", i)
		}
		if string(a.Packets[i].Data) != string(b.Packets[i].Data) {
			t.Fatalf("wire bytes differ at packet %d", i)
		}
	}
}

func TestConnectionLabelsAreConsistentPerConnection(t *testing.T) {
	// Connection-granularity ground truth requires every packet of a
	// connection to carry the same label — the property that makes
	// faithful connection-level training possible (paper §2.1).
	for _, id := range ConnectionIDs() {
		spec, _ := Get(id)
		ds := spec.Generate(0.25)
		// A connection's members are the packets with its canonical tuple
		// whose timestamp falls in its [First, Last]: idle splits of one
		// tuple never overlap.
		byKey := map[netpkt.FiveTuple][]int{}
		pkts := decodeAll(ds)
		for i, p := range pkts {
			if s := p.Summary(); s.HasTuple {
				byKey[s.Tuple.Canonical()] = append(byKey[s.Tuple.Canonical()], i)
			}
		}
		conns := flow.Connections(pkts, flow.Options{})
		for _, c := range conns {
			first, n := -1, 0
			for _, pi := range byKey[c.Tuple.Canonical()] {
				if ts := ds.Packets[pi].Ts; ts.Before(c.First) || ts.After(c.Last) {
					continue
				}
				n++
				if first == -1 {
					first = ds.Labels[pi]
				} else if ds.Labels[pi] != first {
					t.Fatalf("%s: connection %v mixes labels", id, c.Tuple)
				}
			}
			if n != c.OrigPkts+c.RespPkts {
				t.Fatalf("%s: connection %v has %d members, counts %d", id, c.Tuple, n, c.OrigPkts+c.RespPkts)
			}
		}
	}
}

func TestAWID3HasNoIPLayer(t *testing.T) {
	spec, _ := Get("P2")
	ds := spec.Generate(0.3)
	if ds.Link != netpkt.LinkDot11 {
		t.Fatalf("P2 link = %v, want 802.11", ds.Link)
	}
	pkts := decodeAll(ds)
	for i, p := range pkts {
		if p.IPv4 != nil || p.TCP != nil {
			t.Fatalf("packet %d has an IP layer in the 802.11 dataset", i)
		}
		if p.Dot11 == nil {
			t.Fatalf("packet %d missing Dot11 layer", i)
		}
	}
	// No five-tuples -> no connections: connection-level algorithms
	// cannot faithfully run here (paper Obs. 4).
	if conns := flow.Connections(pkts, flow.Options{}); len(conns) != 0 {
		t.Errorf("802.11 dataset produced %d connections, want 0", len(conns))
	}
}

func TestGranularityOrdering(t *testing.T) {
	cases := []struct {
		alg, ds Granularity
		want    bool
	}{
		{Packet, Packet, true},
		{Packet, ConnectionG, true}, // propagate flow label to packets
		{ConnectionG, Packet, false},
		{ConnectionG, ConnectionG, true},
		{UniflowG, ConnectionG, true},
		{UniflowG, Packet, false},
	}
	for _, c := range cases {
		if got := CanFaithfullyRun(c.alg, c.ds); got != c.want {
			t.Errorf("CanFaithfullyRun(%v, %v) = %v, want %v", c.alg, c.ds, got, c.want)
		}
	}
}

// TestParseGranularity: every granularity parses back from its name,
// and no other string parses.
func TestParseGranularity(t *testing.T) {
	for g := Packet; g <= ConnectionG; g++ {
		if got, ok := ParseGranularity(g.String()); !ok || got != g {
			t.Errorf("ParseGranularity(%q) = %v, %v", g.String(), got, ok)
		}
	}
	for _, s := range []string{"", "Connection", "flow", Granularity(3).String()} {
		if g, ok := ParseGranularity(s); ok {
			t.Errorf("ParseGranularity(%q) = %v, want refusal", s, g)
		}
	}
}

func TestMergeKeepsAlignmentAndOrder(t *testing.T) {
	a, _ := Get("F0")
	b, _ := Get("F1")
	da, db := a.Generate(0.2), b.Generate(0.2)
	m := Merge("AB", 0.1, da, db)
	// Flow-sampled: roughly 10% of each part, never the leading prefix.
	total := len(da.Packets) + len(db.Packets)
	if len(m.Packets) < total/30 || len(m.Packets) > total/3 {
		t.Fatalf("merged size %d not near 10%% of %d", len(m.Packets), total)
	}
	if len(m.Labels) != len(m.Packets) || len(m.Attacks) != len(m.Packets) {
		t.Fatal("merged slices misaligned")
	}
	for i := 1; i < len(m.Packets); i++ {
		if m.Packets[i].Ts.Before(m.Packets[i-1].Ts) {
			t.Fatal("merged packets out of time order")
		}
	}
	if m.Granularity != ConnectionG {
		t.Errorf("merged granularity = %v, want connection", m.Granularity)
	}
}

func TestToriiIsStealthy(t *testing.T) {
	// The Torii stand-in must be low-rate relative to benign traffic:
	// its packets/sec during the attack window should be well below the
	// loud attacks'. Sanity-check by packet share: malicious share in F5
	// should be below F1's (DoS).
	f5, _ := Get("F5")
	f1, _ := Get("F1")
	s5 := f5.Generate(0.3).MaliciousFraction()
	s1 := f1.Generate(0.3).MaliciousFraction()
	if s5 >= s1 {
		t.Errorf("Torii share %.3f should be below DoS share %.3f", s5, s1)
	}
}

func TestScaleGrowsDataset(t *testing.T) {
	spec, _ := Get("F1")
	small := spec.Generate(0.2)
	big := spec.Generate(0.5)
	if len(big.Packets) <= len(small.Packets) {
		t.Errorf("scale 0.5 (%d pkts) should exceed scale 0.2 (%d pkts)", len(big.Packets), len(small.Packets))
	}
}
