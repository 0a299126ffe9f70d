package mlkit

import (
	"testing"

	"lumen/internal/mlkit/linalg"
)

// Serial-vs-parallel equivalence: every parallelized train/predict path
// must produce bit-identical output for any worker-pool width. Each test
// runs the full path at 1, 2, and 8 workers and compares float64 bits
// (== on float64 is bitwise here because no path produces NaN).

var eqWorkerCounts = []int{1, 2, 8}

// eqData builds a deterministic blobby dataset large enough to cross
// ParallelRows' serial threshold (64 rows).
func eqData(n, d int, seed int64) ([][]float64, []int) {
	rng := NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % 2
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(c) + 0.3*rng.NormFloat64()
		}
		X[i] = row
		y[i] = c
	}
	return X, y
}

// runAtWorkers executes fn under each worker count and hands results to
// check(reference, got, workers) for counts beyond the first.
func runAtWorkers(t *testing.T, fn func() interface{}, check func(ref, got interface{}, w int)) {
	t.Helper()
	var ref interface{}
	for _, w := range eqWorkerCounts {
		prev := linalg.SetWorkers(w)
		got := fn()
		linalg.SetWorkers(prev)
		if ref == nil {
			ref = got
			continue
		}
		check(ref, got, w)
	}
}

func eqFloats(t *testing.T, name string, ref, got []float64, w int) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: len %d vs %d at workers=%d", name, len(ref), len(got), w)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s[%d]: %v (workers=1) != %v (workers=%d)", name, i, ref[i], got[i], w)
		}
	}
}

func eqInts(t *testing.T, name string, ref, got []int, w int) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: len %d vs %d at workers=%d", name, len(ref), len(got), w)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s[%d]: %d (workers=1) != %d (workers=%d)", name, i, ref[i], got[i], w)
		}
	}
}

func eqRows(t *testing.T, name string, ref, got [][]float64, w int) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: rows %d vs %d at workers=%d", name, len(ref), len(got), w)
	}
	for i := range ref {
		eqFloats(t, name, ref[i], got[i], w)
	}
}

func TestEquivalenceMLP(t *testing.T) {
	X, y := eqData(300, 6, 1)
	runAtWorkers(t, func() interface{} {
		c := &MLPClassifier{Hidden: []int{8}, Epochs: 5, Seed: 7}
		if err := c.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return c.Proba(X)
	}, func(ref, got interface{}, w int) {
		eqFloats(t, "mlp proba", ref.([]float64), got.([]float64), w)
	})
}

func TestEquivalenceAutoencoder(t *testing.T) {
	X, _ := eqData(300, 6, 2)
	runAtWorkers(t, func() interface{} {
		ae := &Autoencoder{Hidden: []int{4}, Epochs: 4, Seed: 7}
		if err := ae.Fit(X); err != nil {
			t.Fatal(err)
		}
		return ae.Score(X)
	}, func(ref, got interface{}, w int) {
		eqFloats(t, "ae score", ref.([]float64), got.([]float64), w)
	})
}

func TestEquivalenceKitNET(t *testing.T) {
	X, _ := eqData(400, 10, 3)
	runAtWorkers(t, func() interface{} {
		kn := &KitNET{MaxAESize: 4, Epochs: 2, Seed: 7}
		if err := kn.Fit(X); err != nil {
			t.Fatal(err)
		}
		return kn.Score(X)
	}, func(ref, got interface{}, w int) {
		eqFloats(t, "kitnet score", ref.([]float64), got.([]float64), w)
	})
}

// TestEquivalenceKNN covers the grouped scan4 kernel with its norm-sorted
// query order and early-exit pruning: per-query results must not depend
// on how queries are grouped into quads or split across workers.
func TestEquivalenceKNN(t *testing.T) {
	X, y := eqData(500, 9, 4)
	Q, _ := eqData(333, 9, 5) // odd count exercises the scan1 tail
	knn := &KNN{K: 5, MaxTrain: -1}
	if err := knn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	runAtWorkers(t, func() interface{} {
		return knn.Proba(Q)
	}, func(ref, got interface{}, w int) {
		eqFloats(t, "knn proba", ref.([]float64), got.([]float64), w)
	})
	runAtWorkers(t, func() interface{} {
		return knn.Predict(Q)
	}, func(ref, got interface{}, w int) {
		eqInts(t, "knn predict", ref.([]int), got.([]int), w)
	})
}

// TestKNNMatchesBruteForce pins the pruned, grouped kernel against a
// naive full-scan KNN: pruning may only skip rows that provably cannot
// enter the top-K, so votes must match exactly.
func TestKNNMatchesBruteForce(t *testing.T) {
	X, y := eqData(200, 9, 6)
	Q, _ := eqData(97, 9, 7)
	kk := 5
	knn := &KNN{K: kk, MaxTrain: -1}
	if err := knn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	got := knn.Proba(Q)
	for i, qrow := range Q {
		// Naive top-K by insertion over all training rows.
		bd := make([]float64, 0, kk)
		by := make([]int, 0, kk)
		for j, xrow := range X {
			d := SqDist(qrow, xrow)
			if len(bd) < kk {
				bd = append(bd, d)
				by = append(by, y[j])
			} else if d < bd[kk-1] {
				bd[kk-1], by[kk-1] = d, y[j]
			} else {
				continue
			}
			for p := len(bd) - 1; p > 0 && bd[p-1] > bd[p]; p-- {
				bd[p-1], bd[p] = bd[p], bd[p-1]
				by[p-1], by[p] = by[p], by[p-1]
			}
		}
		ones := 0
		for _, label := range by {
			if label == 1 {
				ones++
			}
		}
		want := float64(ones) / float64(kk)
		if got[i] != want {
			t.Fatalf("query %d: pruned kernel proba %v, brute force %v", i, got[i], want)
		}
	}
}

func TestEquivalenceGMM(t *testing.T) {
	X, _ := eqData(300, 5, 8)
	runAtWorkers(t, func() interface{} {
		g := &GMM{K: 3, MaxIter: 10, Seed: 7}
		if err := g.Fit(X); err != nil {
			t.Fatal(err)
		}
		return g.Score(X)
	}, func(ref, got interface{}, w int) {
		eqFloats(t, "gmm score", ref.([]float64), got.([]float64), w)
	})
}

func TestEquivalenceKMeans(t *testing.T) {
	X, _ := eqData(300, 5, 9)
	runAtWorkers(t, func() interface{} {
		km := &KMeans{K: 4, Seed: 7}
		if err := km.Fit(X); err != nil {
			t.Fatal(err)
		}
		return km.Assign(X)
	}, func(ref, got interface{}, w int) {
		eqInts(t, "kmeans assign", ref.([]int), got.([]int), w)
	})
}

func TestEquivalenceNystrom(t *testing.T) {
	X, _ := eqData(250, 5, 10)
	runAtWorkers(t, func() interface{} {
		ny := &NystromMap{M: 16, Seed: 7}
		if err := ny.Fit(X); err != nil {
			t.Fatal(err)
		}
		return ny.Transform(X)
	}, func(ref, got interface{}, w int) {
		eqRows(t, "nystrom", ref.([][]float64), got.([][]float64), w)
	})
}

func TestEquivalenceLinearModels(t *testing.T) {
	X, y := eqData(300, 6, 11)
	svm := &LinearSVM{Epochs: 3}
	if err := svm.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	runAtWorkers(t, func() interface{} { return svm.Decision(X) },
		func(ref, got interface{}, w int) {
			eqFloats(t, "svm decision", ref.([]float64), got.([]float64), w)
		})

	oc := &OneClassSVM{Epochs: 3}
	if err := oc.Fit(X); err != nil {
		t.Fatal(err)
	}
	runAtWorkers(t, func() interface{} { return oc.Score(X) },
		func(ref, got interface{}, w int) {
			eqFloats(t, "ocsvm score", ref.([]float64), got.([]float64), w)
		})
}
