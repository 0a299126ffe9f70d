package linalg

import "fmt"

// Blocking parameters for the matrix product kernels. blockJ rows of the
// transposed operand (×8 bytes×Cols) are kept hot in L1/L2 while a strip
// of blockI output rows is computed against them.
const (
	blockI = 8
	blockJ = 64
)

// Dot returns the inner product of two equal-length vectors using four
// independent accumulators, breaking the FP-add dependency chain that
// limits a naive s += a[i]*b[i] loop to one add per ~4 cycles. The
// accumulator combine order is fixed, so results are deterministic.
func Dot(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy computes y += alpha*x element-wise. Each y[j] sees exactly one
// fused update, so accumulation order across repeated Axpy calls is the
// caller's loop order — deterministic by construction.
func Axpy(alpha float64, x, y []float64) {
	y = y[:len(x)] // bounds-check elimination hint
	i := 0
	for ; i+3 < len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// MatMulT computes C = A·Bᵀ where A is n×d and B is m×d, writing the
// n×m result into C (which must be pre-shaped). This is the workhorse
// kernel: B's rows are scanned sequentially (no transposed stride), the
// loop is cache-blocked, and output rows are split across the worker
// pool. Each C[i,j] is one Dot, so results are bit-identical for any
// worker count or block size.
func MatMulT(a, b, c *Dense) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulT shape mismatch: %dx%d · (%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	ParallelRows(a.Rows, func(lo, hi int) {
		for i0 := lo; i0 < hi; i0 += blockI {
			i1 := i0 + blockI
			if i1 > hi {
				i1 = hi
			}
			for j0 := 0; j0 < b.Rows; j0 += blockJ {
				j1 := j0 + blockJ
				if j1 > b.Rows {
					j1 = b.Rows
				}
				for i := i0; i < i1; i++ {
					ai := a.Row(i)
					ci := c.Row(i)
					for j := j0; j < j1; j++ {
						ci[j] = Dot(ai, b.Row(j))
					}
				}
			}
		}
	})
}

// AddBiasRows adds the bias vector to every row of C.
func AddBiasRows(c *Dense, bias []float64) {
	if len(bias) != c.Cols {
		panic(fmt.Sprintf("linalg: AddBiasRows: bias len %d, cols %d", len(bias), c.Cols))
	}
	ParallelRows(c.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := c.Row(i)
			for j := range row {
				row[j] += bias[j]
			}
		}
	})
}
