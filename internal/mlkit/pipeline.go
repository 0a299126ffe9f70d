package mlkit

// Transformer is any fitted feature transformation (scalers, Nyström maps,
// correlation filters all satisfy it): Fit learns parameters from
// training data, Transform applies them (never mutating its input).
type Transformer interface {
	Fit(X [][]float64) error
	Transform(X [][]float64) [][]float64
}

// Pipeline chains feature transformers in front of a classifier, fitting
// each stage on the output of the previous one.
type Pipeline struct {
	Steps []Transformer
	Model Classifier
}

// Fit fits every transformer then the model.
func (p *Pipeline) Fit(X [][]float64, y []int) error {
	cur := X
	for _, s := range p.Steps {
		if err := s.Fit(cur); err != nil {
			return err
		}
		cur = s.Transform(cur)
	}
	return p.Model.Fit(cur, y)
}

// PredictProba applies the fitted transformers once, then scores with the
// model (hard labels stand in for scores when it has none).
func (p *Pipeline) PredictProba(X [][]float64, pred []int, proba []float64) bool {
	return predictProbaHard(p.Model, p.transform(X), pred, proba)
}

// Predict applies the fitted transformers then the model.
func (p *Pipeline) Predict(X [][]float64) []int {
	pred, _ := PredictProba(p, X, nil, nil)
	return pred
}

// Proba applies the transformers and delegates when supported.
func (p *Pipeline) Proba(X [][]float64) []float64 {
	_, proba := PredictProba(p, X, nil, nil)
	return proba
}

func (p *Pipeline) transform(X [][]float64) [][]float64 {
	cur := X
	for _, s := range p.Steps {
		cur = s.Transform(cur)
	}
	return cur
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
