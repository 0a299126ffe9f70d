package mlkit

// VotingEnsemble combines classifiers by majority vote (soft vote over
// Proba when every member supports it). ML-DDoS (A00) is an ensemble of
// RF, SVM, DT and KNN in exactly this arrangement.
type VotingEnsemble struct {
	Members []Classifier
	// Soft averages Proba instead of counting votes when possible.
	Soft bool
}

// Fit trains every member on the same data.
func (v *VotingEnsemble) Fit(X [][]float64, y []int) error {
	if len(v.Members) == 0 {
		return ErrNoData
	}
	for _, m := range v.Members {
		if err := m.Fit(X, y); err != nil {
			return err
		}
	}
	return nil
}

// PredictProba polls the members once: proba is the mean member score
// (see Proba) and pred is 1 where it exceeds one half.
func (v *VotingEnsemble) PredictProba(X [][]float64) ([]int, []float64) {
	proba := v.Proba(X)
	pred := make([]int, len(proba))
	for i, s := range proba {
		if s > 0.5 {
			pred[i] = 1
		}
	}
	return pred, proba
}

// Predict returns the majority (or soft-vote) decision per row.
func (v *VotingEnsemble) Predict(X [][]float64) []int {
	pred, _ := v.PredictProba(X)
	return pred
}

// Proba returns the mean member score: soft-vote probability when all
// members implement ProbClassifier, otherwise the vote fraction.
func (v *VotingEnsemble) Proba(X [][]float64) []float64 {
	out := make([]float64, len(X))
	if v.Soft {
		allProb := true
		for _, m := range v.Members {
			if _, ok := m.(ProbClassifier); !ok {
				allProb = false
				break
			}
		}
		if allProb {
			for _, m := range v.Members {
				for i, s := range m.(ProbClassifier).Proba(X) {
					out[i] += s
				}
			}
			for i := range out {
				out[i] /= float64(len(v.Members))
			}
			return out
		}
	}
	for _, m := range v.Members {
		for i, p := range m.Predict(X) {
			if p != 0 {
				out[i]++
			}
		}
	}
	for i := range out {
		out[i] /= float64(len(v.Members))
	}
	return out
}
