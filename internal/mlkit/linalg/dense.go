// Package linalg provides the flat dense-matrix kernels behind mlkit's
// hot numeric paths: a row-major Dense matrix backed by one allocation,
// cache-blocked matrix products with multi-accumulator inner loops, and
// a deterministic row-parallel work splitter.
//
// Determinism rules: every parallel helper produces bit-identical
// results for any worker count. Disjoint-row writes are deterministic by
// construction (each row is computed by exactly one goroutine running
// the same serial code); a reduction must combine fixed-shard partials
// in shard order rather than accumulate in goroutine-completion order.
package linalg

import "fmt"

// Dense is a row-major matrix over a single flat backing slice:
// element (i, j) lives at Data[i*Cols+j]. The flat layout keeps row
// scans sequential in memory and removes the per-row pointer chase and
// allocation of [][]float64.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zeroed r×c matrix backed by one allocation.
func NewDense(r, c int) *Dense {
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows copies a [][]float64 into a freshly allocated Dense.
// All rows must have the same length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return &Dense{}
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("linalg: FromRows: row %d has %d cols, want %d", i, len(row), m.Cols))
		}
		copy(m.Row(i), row)
	}
	return m
}

// Row returns the i-th row as a slice view into the backing array.
func (m *Dense) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// RowViews returns per-row slice views sharing the backing array — the
// [][]float64 shape mlkit models consume, at the cost of one header
// allocation instead of one allocation per row.
func (m *Dense) RowViews() [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// Reshape reuses m's backing array for an r×c matrix, growing it when
// needed. Contents are unspecified after a growing reshape; callers that
// need zeros should call Zero.
func (m *Dense) Reshape(r, c int) *Dense {
	n := r * c
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = r, c
	return m
}

// SqNorms fills dst (allocating when nil or short) with the squared
// Euclidean norm of each row and returns it.
func (m *Dense) SqNorms(dst []float64) []float64 {
	if cap(dst) < m.Rows {
		dst = make([]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s0, s1 float64
		j := 0
		for ; j+1 < len(row); j += 2 {
			s0 += row[j] * row[j]
			s1 += row[j+1] * row[j+1]
		}
		if j < len(row) {
			s0 += row[j] * row[j]
		}
		dst[i] = s0 + s1
	}
	return dst
}
