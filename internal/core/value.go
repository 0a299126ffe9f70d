// Package core implements the Lumen development framework: the paper's
// primary contribution. An anomaly-detection algorithm is expressed as a
// pipeline of configurable operations (field extraction, grouping, time
// slicing, aggregation, normalization, models, training) connected through
// named values — exactly the template structure of the paper's Fig. 4. The
// execution engine type-checks a pipeline before running it, profiles the
// time and allocation cost of every operation, and frees intermediate
// values that no later operation references.
package core

import (
	"fmt"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
)

// Kind identifies the type of a pipeline value; the engine type-checks
// op inputs against kinds before execution.
type Kind int

// Value kinds.
const (
	KindPackets Kind = iota
	KindFlows
	KindFrame
	KindGrouped
	KindModel
	KindTrained
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPackets:
		return "packets"
	case KindFlows:
		return "flows"
	case KindFrame:
		return "frame"
	case KindGrouped:
		return "grouped"
	case KindModel:
		return "model"
	case KindTrained:
		return "trained"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is anything an operation can produce or consume.
type Value interface{ Kind() Kind }

// Packets is the pipeline's packet input: Views are the packets every
// packet op reads (lazy zero-copy netpkt.PacketViews over the raw frame
// bytes), DS supplies labels, attacks and stream metadata. On a pass both
// describe one chunk and DS.Packets is empty.
type Packets struct {
	DS    *dataset.Labeled
	Views []netpkt.PacketView
}

// newPackets wraps a materialized dataset as one chunk for an op called
// directly, building the views over its packets' wire bytes.
func newPackets(ds *dataset.Labeled) Packets {
	return Packets{DS: ds, Views: ds.AppendViews(nil, 0, len(ds.Packets), netpkt.DecodeHint{})}
}

// Kind implements Value.
func (Packets) Kind() Kind { return KindPackets }

// Len returns the packet count.
func (p Packets) Len() int { return len(p.Views) }

// Flows is the output of flow assembly: either uniflows or connections,
// plus what flow features read of the member packets, one pktStat per
// packet (stats), since the packet set is never materialized.
type Flows struct {
	Granularity dataset.Granularity
	Unis        []*flow.Uniflow    // set when Granularity == UniflowG
	Conns       []*flow.Connection // set when Granularity == ConnectionG
	stats       *pktStats
}

// pktStat is everything flow_features reads of one member packet. It is
// 24 bytes and holds no pointer, so what a flow pipeline retains per
// packet until its barrier runs is never scanned by the collector.
type pktStat struct {
	ts            int64 // UnixNano
	wire, payload int32
	// attack is 0 for a benign packet; for a malicious one, 1 + the
	// index of its attack name in the owning pktStats.
	attack uint32
	flags  uint8 // TCP flag bits, when hasTCP
	hasTCP bool
}

// statOf projects a packet summary to its stat (benign).
func statOf(s *netpkt.PacketSummary) pktStat {
	return pktStat{ts: s.Ts.UnixNano(), wire: int32(s.Wire), payload: int32(s.PayloadLen), flags: s.TCPFlags, hasTCP: s.HasTCP}
}

// pktStats is an append-only sequence of stats stored in fixed-size
// blocks: growing it never copies or re-zeroes what is already held, as
// doubling one slice would. Attack names are interned in attacks.
type pktStats struct {
	blocks  []*[statBlock]pktStat
	n       int
	attacks []string
}

const statBlock = 4096

func (s *pktStats) add(st pktStat) {
	if s.n == len(s.blocks)*statBlock {
		s.blocks = append(s.blocks, new([statBlock]pktStat))
	}
	s.blocks[s.n/statBlock][s.n%statBlock] = st
	s.n++
}

func (s *pktStats) at(i int) pktStat { return s.blocks[i/statBlock][i%statBlock] }

// attackID interns a malicious packet's attack name (possibly empty) as
// a pktStat.attack value. Traces name a handful of attacks, in runs.
func (s *pktStats) attackID(name string) uint32 {
	for k := len(s.attacks) - 1; k >= 0; k-- {
		if s.attacks[k] == name {
			return uint32(k + 1)
		}
	}
	s.attacks = append(s.attacks, name)
	return uint32(len(s.attacks))
}

// label derives the ground truth of a flow whose member packets are idx:
// malicious if any member is (datasets label whole flows, so members
// agree by construction), with the attack name taken from the first
// malicious packet. Unlabeled sources (pcap captures, live feeds) yield
// benign.
func (f *Flows) label(idx []int) (int, string) {
	for _, pi := range idx {
		if a := f.stats.at(pi).attack; a != 0 {
			return 1, f.stats.attacks[a-1]
		}
	}
	return 0, ""
}

// Kind implements Value.
func (Flows) Kind() Kind { return KindFlows }

// Len returns the number of flows.
func (f *Flows) Len() int {
	if f.Granularity == dataset.UniflowG {
		return len(f.Unis)
	}
	return len(f.Conns)
}

// PacketIdx returns the packet indices of flow i.
func (f *Flows) PacketIdx(i int) []int {
	if f.Granularity == dataset.UniflowG {
		return f.Unis[i].PacketIdx
	}
	return f.Conns[i].Packets()
}

// ModelSpec is an unfitted model configuration produced by the "model"
// operation.
type ModelSpec struct {
	Type   string
	Params map[string]any
}

// Kind implements Value.
func (ModelSpec) Kind() Kind { return KindModel }

// Trained is a fitted model, the output of the "train" operation.
type Trained struct {
	Spec ModelSpec
	Clf  mlkit.Classifier
}

// Kind implements Value.
func (Trained) Kind() Kind { return KindTrained }
