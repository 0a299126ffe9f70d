package mlkit

// Transformer is any fitted feature transformation (scalers, Nyström maps,
// correlation filters all satisfy it): Fit learns parameters from
// training data, Transform applies them (never mutating its input).
type Transformer interface {
	Fit(X [][]float64) error
	Transform(X [][]float64) [][]float64
}

// DetectorPipeline chains transformers in front of an unsupervised
// detector (e.g. MinMax → Nyström → OCSVM, the A09 construction).
type DetectorPipeline struct {
	Steps    []Transformer
	Detector Detector
}

// Fit fits every transformer then the detector.
func (p *DetectorPipeline) Fit(X [][]float64) error {
	cur := X
	for _, s := range p.Steps {
		if err := s.Fit(cur); err != nil {
			return err
		}
		cur = s.Transform(cur)
	}
	return p.Detector.Fit(cur)
}

// Score applies the fitted transformers then scores.
func (p *DetectorPipeline) Score(X [][]float64, dst []float64) []float64 {
	cur := X
	for _, s := range p.Steps {
		cur = s.Transform(cur)
	}
	return p.Detector.Score(cur, dst)
}
