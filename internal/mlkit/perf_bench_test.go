package mlkit

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the numeric hot paths the benchsuite spends its
// wall time in: neural-net training (MLP/autoencoder, and through them
// KitNET), KNN prediction, GMM scoring and the Nyström feature map.
// `make bench` runs these with a fixed -benchtime and records the
// results in BENCH_PR3.json so speedups are tracked across PRs.

func benchMatrix(n, d int, seed int64) [][]float64 {
	rng := NewRNG(seed)
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
	}
	return X
}

func benchLabels(X [][]float64) []int {
	y := make([]int, len(X))
	for i, row := range X {
		if row[0]+row[1] > 1 {
			y[i] = 1
		}
	}
	return y
}

func BenchmarkMLPFit(b *testing.B) {
	X := benchMatrix(512, 32, 1)
	y := benchLabels(X)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &MLPClassifier{Hidden: []int{32}, Epochs: 5, Seed: 1}
		if err := c.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoencoderFit(b *testing.B) {
	X := benchMatrix(512, 32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := &Autoencoder{Hidden: []int{16}, Epochs: 5, Seed: 1}
		if err := a.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAutoencoderScore(b *testing.B) {
	X := benchMatrix(2048, 32, 3)
	a := &Autoencoder{Hidden: []int{16}, Epochs: 2, Seed: 1}
	if err := a.Fit(X[:256]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Score(X)
	}
}

// benchBlobs draws rows from a mixture of nc axis-aligned Gaussians with
// shared centers — the clustered shape of real flow-feature data (most
// traffic is repetitive), unlike uniform noise which is the worst case
// for any neighbour pruning.
func benchBlobs(n, d, nc int, rng *RNG, centers []float64) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		c := rng.Intn(nc)
		row := make([]float64, d)
		for j := range row {
			row[j] = centers[c*d+j] + rng.NormFloat64()*0.05
		}
		X[i] = row
	}
	return X
}

func BenchmarkKNNPredict(b *testing.B) {
	for _, d := range []int{8, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			const nc = 16
			rng := NewRNG(4)
			centers := make([]float64, nc*d)
			for i := range centers {
				centers[i] = rng.Float64()
			}
			X := benchBlobs(4096, d, nc, rng, centers)
			y := benchLabels(X)
			k := &KNN{K: 5, MaxTrain: -1}
			if err := k.Fit(X, y); err != nil {
				b.Fatal(err)
			}
			Q := benchBlobs(512, d, nc, rng, centers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = k.Predict(Q)
			}
		})
	}
}

func BenchmarkKitNETFit(b *testing.B) {
	X := benchMatrix(512, 24, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &KitNET{Epochs: 2, Seed: 1}
		if err := k.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKitNETScore(b *testing.B) {
	k, X := benchKitNET(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Score(X)
	}
}

func BenchmarkGMMScore(b *testing.B) {
	X := benchMatrix(4096, 16, 7)
	g := &GMM{K: 4, Seed: 1, MaxIter: 10}
	if err := g.Fit(X[:512]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Score(X)
	}
}

func BenchmarkGMMFit(b *testing.B) {
	X := benchMatrix(1024, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &GMM{K: 4, Seed: 1, MaxIter: 10}
		if err := g.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNystromTransform(b *testing.B) {
	X := benchMatrix(2048, 16, 9)
	ny := &NystromMap{M: 48, Seed: 1}
	if err := ny.Fit(X[:512]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ny.Transform(X)
	}
}

func BenchmarkKMeansFit(b *testing.B) {
	X := benchMatrix(2048, 16, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		km := &KMeans{K: 8, Seed: 1, MaxIter: 15}
		if err := km.Fit(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearPredict(b *testing.B) {
	X := benchMatrix(8192, 32, 11)
	y := benchLabels(X)
	s := &LinearSVM{Seed: 1, Epochs: 3}
	if err := s.Fit(X[:512], y[:512]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Proba(X)
	}
}

// benchLabeledBlobs draws n rows from benchBlobs' cluster mixture and
// labels a row 1 when its cluster is every fourth one, flipping each
// label with probability noise. Pure clusters give trees a few splits
// deep, and each flipped row costs a short isolating path: the shape of
// forests fitted on repetitive packet traffic.
func benchLabeledBlobs(n, d, nc int, noise float64, rng *RNG, centers []float64) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := rng.Intn(nc)
		row := make([]float64, d)
		for j := range row {
			row[j] = centers[c*d+j] + rng.NormFloat64()*0.05
		}
		X[i] = row
		if c%4 == 0 {
			y[i] = 1
		}
		if rng.Float64() < noise {
			y[i] = 1 - y[i]
		}
	}
	return X, y
}

// benchScoredForest fits a forest with the shape of the one A05 scores on
// pkt_rf_file (RF-50 over 27 fields, 2 252 nodes, a 36 KB node array,
// about 4 steps a tree): RF-50 over 2 048 rows of 8 clusters with 0.5 %
// label noise gives 2 250 nodes, depth at most 13 and 5.4 steps a tree.
// It returns the forest with a 512-row chunk from the same clusters.
func benchScoredForest(tb testing.TB) forestFixture {
	tb.Helper()
	const d, nc = 27, 8
	centers, rng := benchMatrix(1, nc*d, 21)[0], NewRNG(31)
	X, y := benchLabeledBlobs(2048, d, nc, 0.005, rng, centers)
	Q, _ := benchLabeledBlobs(512, d, nc, 0, rng, centers)
	return fitFixture(tb, "a05", &RandomForest{NTrees: 50, Seed: 1}, X, y, Q)
}

// benchLightTree fits a single tree with the shape of the light
// pipelines' (103 nodes over 9 header fields): 1 024 rows of 12 clusters
// with 2 % label noise give 99 nodes, depth 12. It returns the tree with
// a 512-row chunk from the same clusters.
func benchLightTree(tb testing.TB) forestFixture {
	tb.Helper()
	const d, nc = 9, 12
	centers, rng := benchMatrix(1, nc*d, 22)[0], NewRNG(32)
	X, y := benchLabeledBlobs(1024, d, nc, 0.02, rng, centers)
	Q, _ := benchLabeledBlobs(512, d, nc, 0, rng, centers)
	return fitFixture(tb, "light_tree", &DecisionTree{Seed: 1}, X, y, Q)
}

// benchForest fits a forest 11× the size of the one A05 scores (RF-50
// over 27 uniform fields with a product-rule label: 25 748 nodes, 412 KB
// of them) and returns it with one 512-row chunk, the daemon's default
// chunk size. Its nodes overflow L1 many times over, so it guards the
// kernel on forests larger than the pipelines fit.
func benchForest(tb testing.TB) forestFixture {
	tb.Helper()
	X := benchMatrix(4096, 27, 13)
	y := make([]int, len(X))
	for i, row := range X {
		if row[0]+row[5]*row[9] > 0.9 {
			y[i] = 1
		}
	}
	return fitFixture(tb, "large", &RandomForest{NTrees: 50, Seed: 1}, X, y, benchMatrix(512, 27, 14))
}

// forestFixture is a fitted tree-family model, the set it was fitted on
// and a 512-row chunk to score with it.
type forestFixture struct {
	name   string
	m      FusedClassifier
	X      [][]float64
	trainX [][]float64
	trainY []int
}

// fitFixture fits m on X, y and returns it as the fixture name scoring Q.
func fitFixture(tb testing.TB, name string, m FusedClassifier, X [][]float64, y []int, Q [][]float64) forestFixture {
	tb.Helper()
	if err := m.Fit(X, y); err != nil {
		tb.Fatal(err)
	}
	return forestFixture{name: name, m: m, X: Q, trainX: X, trainY: y}
}

// forestFixtures returns the A05-shaped forest, the light pipelines'
// single tree and the large forest.
func forestFixtures(tb testing.TB) []forestFixture {
	return []forestFixture{benchScoredForest(tb), benchLightTree(tb), benchForest(tb)}
}

// BenchmarkForestFit is the tree-fitting layer's own number: one Fit of
// each of forestFixtures' models on its training set.
func BenchmarkForestFit(b *testing.B) {
	for _, c := range forestFixtures(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.m.Fit(c.trainX, c.trainY); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestScore is the tree-scoring layer's own number: one fused
// predict+score call per 512-row chunk on each of forestFixtures.
func BenchmarkForestScore(b *testing.B) {
	for _, c := range forestFixtures(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.m.PredictProba(c.X)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.X)), "ns/row")
		})
	}
}
