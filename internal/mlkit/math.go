package mlkit

import (
	"math"
	"sort"

	"lumen/internal/mlkit/linalg"
)

// Thin wrappers keep call sites short inside hot loops.
func sqrt(x float64) float64 { return math.Sqrt(x) }
func log(x float64) float64  { return math.Log(x) }

// Dot returns the inner product of two equal-length vectors, delegating
// to the multi-accumulator linalg kernel.
func Dot(a, b []float64) float64 {
	return linalg.Dot(a, b)
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// SortedCopy returns xs sorted ascending without reordering the input,
// reusing scratch's backing array when it has the capacity. Pass nil to
// allocate; pass a retained buffer to sort many same-length slices (e.g.
// per-column quantiles) with one allocation.
func SortedCopy(xs, scratch []float64) []float64 {
	if cap(scratch) < len(xs) {
		scratch = make([]float64, len(xs))
	}
	scratch = scratch[:len(xs)]
	copy(scratch, xs)
	sort.Float64s(scratch)
	return scratch
}

// QuantileSorted returns the q-th quantile (q in [0,1], linear
// interpolation) of an ascending-sorted slice. Use it with SortedCopy to
// take several quantiles of one column with a single sort.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantile returns the q-th quantile of xs (q in [0,1]) with linear
// interpolation; it copies xs so the input is not reordered.
func Quantile(xs []float64, q float64) float64 {
	return QuantileSorted(SortedCopy(xs, nil), q)
}

// ArgMax returns the index of the maximum element (first on ties), or -1 for
// an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// PearsonCorr returns the Pearson correlation of a and b, or 0 when either
// has zero variance.
func PearsonCorr(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// logSumExp computes log(sum(exp(xs))) stably.
func logSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}
