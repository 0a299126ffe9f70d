package linalg

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator for test fixtures.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(uint64(*l)>>11) / (1 << 53)
}

func randDense(r, c int, seed uint64) *Dense {
	g := lcg(seed)
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = g.next()*2 - 1
	}
	return m
}

func naiveMatMulT(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMatMulTMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {65, 17, 130}, {8, 64, 8}, {100, 1, 3}} {
		n, d, m := dims[0], dims[1], dims[2]
		a := randDense(n, d, uint64(n*1000+d))
		b := randDense(m, d, uint64(m*1000+d+1))
		c := NewDense(n, m)
		MatMulT(a, b, c)
		want := naiveMatMulT(a, b)
		for i := range c.Data {
			if math.Abs(c.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("dims %v: C[%d] = %v, want %v", dims, i, c.Data[i], want.Data[i])
			}
		}
	}
}

func TestDotAndAxpyTails(t *testing.T) {
	for n := 0; n < 9; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		var want float64
		for i := range a {
			a[i] = float64(i + 1)
			b[i] = float64(2*i - 3)
			want += a[i] * b[i]
		}
		if got := Dot(a, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Dot len %d = %v, want %v", n, got, want)
		}
		y := make([]float64, n)
		Axpy(0.5, a, y)
		for i := range y {
			if y[i] != 0.5*a[i] {
				t.Fatalf("Axpy len %d: y[%d] = %v", n, i, y[i])
			}
		}
	}
}

// TestMatMulTDeterministicAcrossWorkers is the package-level determinism
// contract: the same product, bit-identical, for 1, 2 and 8 workers.
func TestMatMulTDeterministicAcrossWorkers(t *testing.T) {
	a := randDense(257, 19, 7)
	b := randDense(131, 19, 8)
	var ref *Dense
	for _, w := range []int{1, 2, 8} {
		prev := SetWorkers(w)
		c := NewDense(a.Rows, b.Rows)
		MatMulT(a, b, c)
		SetWorkers(prev)
		if ref == nil {
			ref = c
			continue
		}
		for i := range c.Data {
			if c.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: C[%d] = %b, want %b (not bit-identical)", w, i, c.Data[i], ref.Data[i])
			}
		}
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000} {
		for _, w := range []int{1, 3, 8} {
			prev := SetWorkers(w)
			seen := make([]int32, n)
			ParallelRows(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			SetWorkers(prev)
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: row %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestDenseHelpers(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatal("FromRows wrong")
	}
	views := m.RowViews()
	views[1][0] = 30
	if m.At(1, 0) != 30 {
		t.Fatal("RowViews must alias the backing array")
	}
	norms := m.SqNorms(nil)
	if norms[0] != 5 || norms[2] != 25+36 {
		t.Fatalf("SqNorms = %v", norms)
	}
	m.Reshape(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatal("Reshape wrong")
	}
	cl := m.Clone()
	cl.Data[0] = -1
	if m.Data[0] == -1 {
		t.Fatal("Clone must not alias")
	}
}
