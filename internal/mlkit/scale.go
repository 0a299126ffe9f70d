package mlkit

import "math"

// StandardScaler centers each feature to zero mean and unit variance.
// Zero-variance features are centered only.
type StandardScaler struct {
	Mean []float64
	Std  []float64
}

// Fit computes per-feature mean and standard deviation.
func (s *StandardScaler) Fit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	s.Mean = make([]float64, d)
	s.Std = make([]float64, d)
	n := float64(len(X))
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
	}
	return nil
}

// Transform returns a standardized copy of X.
func (s *StandardScaler) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = v - s.Mean[j]
			if s.Std[j] > 0 {
				r[j] /= s.Std[j]
			}
		}
		out[i] = r
	}
	return out
}

// MinMaxScaler maps each feature into [0,1] using the training min/max.
// Constant features map to 0.
type MinMaxScaler struct {
	Min []float64
	Max []float64
}

// Fit records per-feature minima and maxima.
func (s *MinMaxScaler) Fit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	s.Min = make([]float64, d)
	s.Max = make([]float64, d)
	copy(s.Min, X[0])
	copy(s.Max, X[0])
	for _, row := range X[1:] {
		for j, v := range row {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return nil
}

// Transform returns a scaled copy of X; values outside the training range
// are clamped to [0,1].
func (s *MinMaxScaler) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = s.scale(j, v)
		}
		out[i] = r
	}
	return out
}

// scale maps one value of feature j into [0,1].
func (s *MinMaxScaler) scale(j int, v float64) float64 {
	span := s.Max[j] - s.Min[j]
	if span <= 0 {
		return 0
	}
	x := (v - s.Min[j]) / span
	if x < 0 {
		x = 0
	} else if x > 1 {
		x = 1
	}
	return x
}

// CorrelationFilter drops features that are highly correlated with an
// earlier feature (|r| >= Threshold), a standard cleanup step the paper's
// synthesized algorithms apply.
type CorrelationFilter struct {
	// Threshold above which a later feature is dropped. Defaults to 0.95
	// when zero.
	Threshold float64
	// Keep holds the retained column indices after Fit.
	Keep []int
}

// Fit selects the columns to keep.
func (f *CorrelationFilter) Fit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	thr := f.Threshold
	if thr == 0 {
		thr = 0.95
	}
	cols := make([][]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, len(X))
		for i, row := range X {
			col[i] = row[j]
		}
		cols[j] = col
	}
	f.Keep = f.Keep[:0]
	for j := 0; j < d; j++ {
		redundant := false
		for _, k := range f.Keep {
			if math.Abs(PearsonCorr(cols[j], cols[k])) >= thr {
				redundant = true
				break
			}
		}
		if !redundant {
			f.Keep = append(f.Keep, j)
		}
	}
	return nil
}

// Transform projects X onto the retained columns.
func (f *CorrelationFilter) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, len(f.Keep))
		for k, j := range f.Keep {
			r[k] = row[j]
		}
		out[i] = r
	}
	return out
}
