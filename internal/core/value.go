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

// Flows is the output of flow assembly: uniflows or connections, as
// Granularity says, each carrying what flow features read of its member
// packets (its flow.PacketStat list, since the packet set is never
// materialized) and its label.
type Flows struct {
	Granularity dataset.Granularity
	Flows       []*flow.Flow
	// attacks interns the attack names of the flows' labels: a flow's
	// Label is 0 when it is benign and 1 + the index of the attack name
	// of its first malicious packet otherwise.
	attacks []string
}

// Kind implements Value.
func (Flows) Kind() Kind { return KindFlows }

// Len returns the number of flows.
func (f *Flows) Len() int { return len(f.Flows) }

// label returns the ground truth of flow i: malicious if any member is
// (datasets label whole flows, so members agree by construction), with
// the attack name of the first malicious member. Unlabeled sources (pcap
// captures, live feeds) yield benign.
func (f *Flows) label(i int) (int, string) {
	lab := f.Flows[i].Label
	if lab == 0 {
		return 0, ""
	}
	return 1, f.attacks[lab-1]
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
