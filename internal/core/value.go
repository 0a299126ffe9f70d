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
// bytes), DS supplies labels, attacks and stream metadata. On streaming
// runs both describe one chunk and DS.Packets is empty; on batch runs DS
// is the whole materialized dataset, which flow assembly's batch driver
// reads directly.
type Packets struct {
	DS    *dataset.Labeled
	Views []netpkt.PacketView
}

// newPackets wraps a materialized dataset for a batch run, building the
// views over its packets' wire bytes once for every op that reads them.
func newPackets(ds *dataset.Labeled) Packets {
	return Packets{DS: ds, Views: ds.AppendViews(nil, 0, len(ds.Packets), netpkt.DecodeHint{})}
}

// Kind implements Value.
func (Packets) Kind() Kind { return KindPackets }

// Len returns the packet count.
func (p Packets) Len() int { return len(p.Views) }

// Flows is the output of flow assembly: either uniflows or connections,
// with the source dataset retained for label and attack attribution.
type Flows struct {
	DS          *dataset.Labeled
	Granularity dataset.Granularity
	Unis        []*flow.Uniflow    // set when Granularity == UniflowG
	Conns       []*flow.Connection // set when Granularity == ConnectionG
	// Sums, when non-nil, carries per-packet summaries indexed like
	// DS.Packets would be; set by streaming runs, where the decoded
	// packet set is never materialized. Feature computation reads
	// per-packet fields through summary().
	Sums []netpkt.PacketSummary
}

// summary returns the flow-assembly fields of member packet pi from
// whichever representation the value carries.
func (f *Flows) summary(pi int) netpkt.PacketSummary {
	if f.Sums != nil {
		return f.Sums[pi]
	}
	return f.DS.Packets[pi].Summary()
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
