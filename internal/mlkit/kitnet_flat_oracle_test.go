package mlkit

import (
	"math"
	"testing"

	"lumen/internal/mlkit/linalg"
)

// KitNET's scoring kernel (kitnetFlat, flatAE.rmse) and its training loop
// (trainRows) replaced code that normalised into a fresh matrix, gathered
// every cluster's features into a slice per row and ran each member as a
// batched Autoencoder.Score. This file keeps that code as the reference
// and pins the kernel to it bit for bit.

// refKitNETScore is the old KitNET.Score, reading the same fitted model.
func refKitNETScore(k *KitNET, X [][]float64) []float64 {
	Xs := k.norm.Transform(X)
	tails := make([][]float64, len(Xs))
	for i := range tails {
		tails[i] = make([]float64, len(k.clusters))
	}
	sub := make([][]float64, len(Xs))
	for c, feats := range k.clusters {
		for i, row := range Xs {
			dst := make([]float64, len(feats))
			for j, f := range feats {
				dst[j] = row[f]
			}
			sub[i] = dst
		}
		for i, s := range k.ensemble[c].Score(sub, nil) {
			tails[i][c] = clamp01(s)
		}
	}
	return k.output.Score(tails, nil)
}

// refKitNET is the old KitNET's training: ensemble construction spelled
// out in Fit and PartialFit, networks initialized lazily by their first
// TrainOne, rows normalised up front. Score goes through refKitNETScore.
type refKitNET struct {
	KitNET
}

func (k *refKitNET) build() {
	lr := k.LR
	if lr == 0 {
		lr = 0.1
	}
	k.ensemble = make([]*Autoencoder, len(k.clusters))
	for c, feats := range k.clusters {
		b := len(feats) * 3 / 4
		if b < 1 {
			b = 1
		}
		k.ensemble[c] = &Autoencoder{Hidden: []int{b}, LR: lr, Seed: k.Seed + int64(c)}
	}
	ob := len(k.clusters) * 3 / 4
	if ob < 1 {
		ob = 1
	}
	k.output = &Autoencoder{Hidden: []int{ob}, LR: lr, Seed: k.Seed + 7919}
}

func (k *refKitNET) train(Xs [][]float64) {
	sub := make([]float64, 0, k.maxAE())
	tail := make([]float64, len(k.clusters))
	for _, row := range Xs {
		for c, feats := range k.clusters {
			sub = sub[:0]
			for _, f := range feats {
				sub = append(sub, row[f])
			}
			tail[c] = clamp01(k.ensemble[c].TrainOne(sub))
		}
		k.output.TrainOne(tail)
	}
}

func (k *refKitNET) Fit(X [][]float64) error {
	grace := k.GracePeriod
	if grace == 0 {
		grace = len(X) / 10
		if grace > 1000 {
			grace = 1000
		}
	}
	if grace < 2 {
		grace = 2
	}
	if grace > len(X) {
		grace = len(X)
	}
	k.clusters = clusterFeatures(X[:grace], k.maxAE())
	k.norm = &MinMaxScaler{}
	if err := k.norm.Fit(X); err != nil {
		return err
	}
	Xs := k.norm.Transform(X)
	k.build()
	epochs := k.Epochs
	if epochs == 0 {
		epochs = 10
	}
	for e := 0; e < epochs; e++ {
		k.train(Xs)
	}
	return nil
}

func (k *refKitNET) PartialFit(X [][]float64) error {
	if k.clusters == nil {
		k.clusters = clusterFeatures(X, k.maxAE())
		k.norm = &MinMaxScaler{}
		if err := k.norm.Fit(X); err != nil {
			return err
		}
		k.build()
	} else if err := k.norm.PartialFit(X); err != nil {
		return err
	}
	k.train(k.norm.Transform(X))
	return nil
}

func (k *refKitNET) Score(X [][]float64) []float64 { return refKitNETScore(&k.KitNET, X) }

func sameScoreBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d scores %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// correlated returns n rows of d features that all follow one latent
// value, so clustering puts them in a single cluster when it fits.
func correlated(n, d int, seed int64) [][]float64 {
	rng := NewRNG(seed)
	X := make([][]float64, n)
	for i := range X {
		z := rng.NormFloat64()
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(j+1)*z + 0.01*rng.NormFloat64()
		}
		X[i] = row
	}
	return X
}

// TestKitNETMatchesReference: the same seeds trained by the old loops and
// scored by the old Score give the same bits as the flat layout, after
// Fit, after a run of PartialFits (the first building the ensemble, later
// ones widening the normalization), on out-of-range and empty inputs, for
// wide, single-feature and single-cluster models, at any worker count.
func TestKitNETMatchesReference(t *testing.T) {
	wide, _ := eqData(700, 39, 3)
	shifted, _ := eqData(300, 39, 4)
	for i := range shifted {
		for j := range shifted[i] {
			shifted[i][j] = 3*shifted[i][j] - 1 // outside the fitted range
		}
	}
	one := benchMatrix(200, 1, 5)
	cases := []struct {
		name  string
		model KitNET
		train [][]float64
		probe [][]float64
	}{
		{"39 features", KitNET{Epochs: 2, Seed: 7}, wide, shifted},
		{"small clusters", KitNET{MaxAESize: 3, Epochs: 1, Seed: 1, LR: 0.05, GracePeriod: 50}, wide, shifted},
		{"single feature", KitNET{Epochs: 2, Seed: 2}, one, benchMatrix(100, 1, 6)},
		{"single cluster", KitNET{Epochs: 2, Seed: 3}, correlated(300, 6, 8), correlated(100, 6, 9)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 4} {
				prev := linalg.SetWorkers(w)
				defer linalg.SetWorkers(prev)

				got, ref := tc.model, refKitNET{KitNET: tc.model}
				if err := got.Fit(tc.train); err != nil {
					t.Fatal(err)
				}
				if err := ref.Fit(tc.train); err != nil {
					t.Fatal(err)
				}
				if tc.name == "single cluster" && len(got.clusters) != 1 {
					t.Fatalf("%d clusters, want 1", len(got.clusters))
				}
				for name, X := range map[string][][]float64{"train": tc.train, "probe": tc.probe, "empty": {}} {
					sameScoreBits(t, "Fit, "+name, got.Score(X, nil), ref.Score(X))
					sameScoreBits(t, "Fit, same model, "+name, got.Score(X, nil), refKitNETScore(&got, X))
				}

				got, ref = tc.model, refKitNET{KitNET: tc.model}
				third := len(tc.train) / 3
				for _, batch := range [][][]float64{tc.train[:third], tc.probe, tc.train[third:]} {
					if err := got.PartialFit(batch); err != nil {
						t.Fatal(err)
					}
					if err := ref.PartialFit(batch); err != nil {
						t.Fatal(err)
					}
					sameScoreBits(t, "PartialFit", got.Score(tc.train, nil), ref.Score(tc.train))
				}
			}
		})
	}
}

// TestKitNETWeightsAreOneBlock: after training, every member network's
// weights and biases still alias the flat layout's block, in member
// order — the kernel reads what TrainOne wrote, with no copy to refresh.
func TestKitNETWeightsAreOneBlock(t *testing.T) {
	X, _ := eqData(300, 12, 3)
	k := &KitNET{MaxAESize: 4, Epochs: 1, Seed: 1}
	if err := k.Fit(X); err != nil {
		t.Fatal(err)
	}
	if err := k.PartialFit(X[:50]); err != nil {
		t.Fatal(err)
	}
	at := 0
	for _, a := range append(append([]*Autoencoder(nil), k.ensemble...), k.output) {
		for l, w := range a.net.weights {
			for _, part := range [][]float64{w.Data, a.net.biases[l]} {
				if len(part) == 0 || &part[0] != &k.flat.weights[at] {
					t.Fatalf("a network's layer %d does not sit at offset %d of the weight block", l, at)
				}
				at += len(part)
			}
		}
	}
	if at != len(k.flat.weights) {
		t.Fatalf("networks cover %d of the block's %d values", at, len(k.flat.weights))
	}
}

func benchKitNET(tb testing.TB) (*KitNET, [][]float64) {
	tb.Helper()
	X := benchMatrix(512, 39, 6)
	k := &KitNET{Epochs: 1, Seed: 1}
	if err := k.Fit(X); err != nil {
		tb.Fatal(err)
	}
	return k, X
}

// TestKitNETScoreAllocations pins the kernel's allocation count on a warm
// 512×39 chunk scored into a caller's slice: the row-range closure when
// serial, plus the fan-out's WaitGroup and one closure per goroutine when
// not.
func TestKitNETScoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	k, X := benchKitNET(t)
	for _, tc := range []struct {
		workers int
		max     float64
	}{{1, 1}, {2, 3}} {
		prev := linalg.SetWorkers(tc.workers)
		out := k.Score(X, nil) // the scratch pool is warm from here on
		n := testing.AllocsPerRun(20, func() { k.Score(X, out) })
		linalg.SetWorkers(prev)
		if n > tc.max {
			t.Errorf("Score over 512×39 at %d workers allocates %.0f times per call, want at most %.0f", tc.workers, n, tc.max)
		}
	}
}

// BenchmarkKitNETScoreReference is the old Score on the same model and
// chunk as BenchmarkKitNETScore.
func BenchmarkKitNETScoreReference(b *testing.B) {
	k, X := benchKitNET(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = refKitNETScore(k, X)
	}
}
