package core

import (
	"fmt"
	"math"
	"testing"
)

// TestFlatMatrixMatchesMatrix pins the flat row-major matrix rowMajor
// renders against the row shape Matrix exposes: same values, one backing
// allocation, and Matrix rows must be views into that flat storage
// (mutating a row must not touch the frame's columns).
func TestFlatMatrixMatchesMatrix(t *testing.T) {
	f := NewFrame(4)
	f.AddF("a", []float64{1, 2, 3, 4})
	f.AddS("tag", []string{"x", "y", "x", "y"}) // skipped by both paths
	f.AddF("b", []float64{10, 20, 30, 40})

	data, k := f.rowMajor(nil)
	if len(data) != 8 || k != 2 {
		t.Fatalf("flat matrix = %d values of width %d, want 8 of width 2", len(data), k)
	}
	X := f.Matrix()
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if X[i][j] != data[i*k+j] {
				t.Fatalf("Matrix[%d][%d] = %g, flat = %g", i, j, X[i][j], data[i*k+j])
			}
		}
	}
	if data[2*k+1] != 30 {
		t.Fatalf("flat(2,1) = %g, want 30", data[2*k+1])
	}
	// Matrix rows view the flat copy, not the frame's columns.
	X[0][0] = -1
	if f.Col("a").F[0] != 1 {
		t.Fatal("mutating a Matrix row must not write through to frame columns")
	}
}

// TestFlatMatrixNoNumeric covers the zero-column edge.
func TestFlatMatrixNoNumeric(t *testing.T) {
	f := NewFrame(3)
	f.AddS("s", []string{"a", "b", "c"})
	if data, k := f.rowMajor(nil); len(data) != 0 || k != 0 {
		t.Fatalf("flat matrix = %d values of width %d, want none", len(data), k)
	}
	X := f.Matrix()
	if len(X) != 3 || len(X[0]) != 0 {
		t.Fatalf("Matrix shape = %d rows, row0 len %d", len(X), len(X[0]))
	}
}

// TestTakeRowsIdentityView verifies the O(n) identity-permutation fast
// path returns a frame sharing column storage (like Select), while
// non-identity index sets still copy.
func TestTakeRowsIdentityView(t *testing.T) {
	f := NewFrame(3)
	f.AddF("a", []float64{1, 2, 3})
	f.AddS("s", []string{"p", "q", "r"})
	f.Labels = []int{0, 1, 0}
	f.UnitIdx = []int{5, 6, 7}
	f.Attacks = []string{"", "dos", ""}

	view := f.TakeRows([]int{0, 1, 2})
	if view.N != 3 {
		t.Fatalf("view.N = %d", view.N)
	}
	// Shared storage: writes through the view's column are visible in f.
	view.Col("a").F[1] = 99
	if f.Col("a").F[1] != 99 {
		t.Fatal("identity TakeRows must share numeric column storage")
	}
	f.Col("a").F[1] = 2
	if &view.Labels[0] != &f.Labels[0] || &view.UnitIdx[0] != &f.UnitIdx[0] {
		t.Fatal("identity TakeRows must share label/unit metadata")
	}

	// A reordering must still deep-copy.
	rev := f.TakeRows([]int{2, 1, 0})
	rev.Col("a").F[0] = -5
	if f.Col("a").F[2] == -5 {
		t.Fatal("non-identity TakeRows must copy column storage")
	}
	if rev.Col("a").F[1] != 2 || rev.Col("s").S[0] != "r" || rev.Labels[0] != 0 || rev.Attacks[1] != "dos" {
		t.Fatal("non-identity TakeRows reordered values wrong")
	}

	// Same length but permuted: must not take the view path.
	perm := f.TakeRows([]int{1, 0, 2})
	perm.Col("a").F[0] = 123
	if f.Col("a").F[1] == 123 {
		t.Fatal("permuted TakeRows must copy, not share")
	}
}

// TestGroupRowsKeyCompat pins the strconv.AppendFloat key building
// against the previous fmt.Sprintf("%g") + string-concat scheme: every
// produced group key must be byte-identical, including negative zero,
// exponents, infinities and NaN.
func TestGroupRowsKeyCompat(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-9, 1.2345678901234567e+300,
		-2.5e-300, math.Inf(1), math.Inf(-1), math.NaN(), 1234567890.123,
	}
	tags := []string{"a", "b", "a", "b", "c", "a", "b", "c", "a", "b", "c", "a"}
	f := NewFrame(len(vals))
	f.AddF("v", vals)
	f.AddS("tag", tags)

	g, err := groupRows(f, []string{"v", "tag"})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute keys the old way and check first-appearance order + bytes.
	oldIndex := map[string]int{}
	var oldKeys []string
	for r := 0; r < f.N; r++ {
		key := fmt.Sprintf("%g", vals[r]) + "|" + tags[r]
		if _, ok := oldIndex[key]; !ok {
			oldIndex[key] = len(oldKeys)
			oldKeys = append(oldKeys, key)
		}
	}
	if len(g.Keys) != len(oldKeys) {
		t.Fatalf("got %d groups, old scheme gives %d", len(g.Keys), len(oldKeys))
	}
	for i, k := range g.Keys {
		if k != oldKeys[i] {
			t.Fatalf("key[%d] = %q, old scheme %q", i, k, oldKeys[i])
		}
	}
}
