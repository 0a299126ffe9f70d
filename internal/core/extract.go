package core

import (
	"fmt"

	"lumen/internal/dataset"
)

// FeatureSet is a materialized feature matrix with metadata, for analyses
// that need direct access to features outside a pipeline run (feature
// importance, device classification, custom studies — the paper's §6
// extensions).
type FeatureSet struct {
	Names   []string
	X       [][]float64
	Y       []int
	Attacks []string
	// UnitIdx maps each row to its packet or flow index in the source.
	UnitIdx []int
	Unit    UnitKind
}

// ExtractFlowFeatures assembles flows at the given granularity and
// computes the named per-flow features (nil = full catalogue).
func ExtractFlowFeatures(ds *dataset.Labeled, gran dataset.Granularity, feats []string) (*FeatureSet, error) {
	if gran == dataset.Packet {
		return nil, fmt.Errorf("core: ExtractFlowFeatures needs a flow granularity")
	}
	fl, err := opFlowAssemble(nil, []Value{newPackets(ds)}, params{"granularity": gran.String()})
	if err != nil {
		return nil, err
	}
	p := params{}
	if feats != nil {
		p["features"] = feats
	}
	fv, err := opFlowFeatures(nil, []Value{fl}, p)
	if err != nil {
		return nil, err
	}
	return frameToSet(fv.(*Frame)), nil
}

// ExtractPacketFields extracts the named per-packet fields (numeric
// fields only make it into X; string fields are skipped).
func ExtractPacketFields(ds *dataset.Labeled, fields []string) (*FeatureSet, error) {
	ctx := &opCtx{stream: &streamCtx{carry: make([]any, 1)}}
	fv, err := opFieldExtract(ctx, []Value{newPackets(ds)}, params{"fields": fields})
	if err != nil {
		return nil, err
	}
	return frameToSet(fv.(*Frame)), nil
}

func frameToSet(f *Frame) *FeatureSet {
	var names []string
	for _, c := range f.Cols {
		if c.IsNumeric() {
			names = append(names, c.Name)
		}
	}
	return &FeatureSet{
		Names:   names,
		X:       f.Matrix(),
		Y:       f.Labels,
		Attacks: f.Attacks,
		UnitIdx: f.UnitIdx,
		Unit:    f.Unit,
	}
}
