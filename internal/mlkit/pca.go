package mlkit

import "math"

// PCA computes a principal-component basis via Jacobi eigendecomposition
// of the covariance matrix. As a Detector it scores rows by squared
// reconstruction residual outside the top-K subspace — the classical
// subspace anomaly detector that deep-autoencoder IDS papers (e.g. the
// early-detection model A12) benchmark against.
type PCA struct {
	// K retained components; 0 means enough to explain 95% variance.
	K int

	mean   []float64
	comps  [][]float64 // [k][d] principal axes
	eigval []float64
}

// Fit learns the mean and principal axes of X.
func (p *PCA) Fit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	n := float64(len(X))
	p.mean = make([]float64, d)
	for _, row := range X {
		for j, v := range row {
			p.mean[j] += v
		}
	}
	for j := range p.mean {
		p.mean[j] /= n
	}
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range X {
		for a := 0; a < d; a++ {
			da := row[a] - p.mean[a]
			for bI := a; bI < d; bI++ {
				cov[a][bI] += da * (row[bI] - p.mean[bI])
			}
		}
	}
	for a := 0; a < d; a++ {
		for bI := a; bI < d; bI++ {
			cov[a][bI] /= n
			cov[bI][a] = cov[a][bI]
		}
	}
	vals, vecs := jacobiEigen(cov, 100)
	// Order components by decreasing eigenvalue.
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < d; i++ { // insertion sort, d is small
		for j := i; j > 0 && vals[idx[j]] > vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	var total float64
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	k := p.K
	if k <= 0 {
		var acc float64
		for _, i := range idx {
			if vals[i] <= 0 {
				break
			}
			acc += vals[i]
			k++
			if total > 0 && acc/total >= 0.95 {
				break
			}
		}
		if k == 0 {
			k = 1
		}
	}
	if k > d {
		k = d
	}
	p.comps = make([][]float64, k)
	p.eigval = make([]float64, k)
	for c := 0; c < k; c++ {
		p.eigval[c] = vals[idx[c]]
		axis := make([]float64, d)
		for r := 0; r < d; r++ {
			axis[r] = vecs[r][idx[c]]
		}
		p.comps[c] = axis
	}
	return nil
}

// Components reports the number of retained components after Fit.
func (p *PCA) Components() int { return len(p.comps) }

// Transform projects rows onto the retained components.
func (p *PCA) Transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		cent := make([]float64, len(row))
		for j := range row {
			cent[j] = row[j] - p.mean[j]
		}
		proj := make([]float64, len(p.comps))
		for c, axis := range p.comps {
			proj[c] = Dot(axis, cent)
		}
		out[i] = proj
	}
	return out
}

// Score writes the squared reconstruction residual per row (distance
// from the principal subspace); higher means more anomalous.
func (p *PCA) Score(X [][]float64, dst []float64) []float64 {
	out := outBuf(dst, len(X))
	for i, row := range X {
		cent := make([]float64, len(row))
		for j := range row {
			cent[j] = row[j] - p.mean[j]
		}
		var norm2 float64
		for _, v := range cent {
			norm2 += v * v
		}
		var proj2 float64
		for _, axis := range p.comps {
			pr := Dot(axis, cent)
			proj2 += pr * pr
		}
		res := norm2 - proj2
		if res < 0 {
			res = 0
		}
		out[i] = math.Sqrt(res)
	}
	return out
}
