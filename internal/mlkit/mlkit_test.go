package mlkit

import (
	"math"
	"testing"
)

// blobs generates two well-separated Gaussian clusters labelled 0 and 1.
func blobs(n, d int, sep float64, seed int64) ([][]float64, []int) {
	rng := NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		label := i % 2
		for j := range row {
			row[j] = rng.NormFloat64()
			if label == 1 {
				row[j] += sep
			}
		}
		X[i] = row
		y[i] = label
	}
	return X, y
}

// xorData generates the classic non-linearly-separable XOR pattern.
func xorData(n int, seed int64) ([][]float64, []int) {
	rng := NewRNG(seed)
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a := rng.Float64()
		b := rng.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return X, y
}

func fitPredictAccuracy(t *testing.T, c Classifier, X [][]float64, y []int) float64 {
	t.Helper()
	Xtr, ytr, Xte, yte := StratifiedSplit(X, y, 0.3, 1)
	if err := c.Fit(Xtr, ytr); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return Accuracy(yte, c.Predict(Xte))
}

func TestDecisionTreeSeparable(t *testing.T) {
	X, y := blobs(400, 4, 3, 1)
	acc := fitPredictAccuracy(t, &DecisionTree{}, X, y)
	if acc < 0.95 {
		t.Errorf("accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestDecisionTreeXOR(t *testing.T) {
	X, y := xorData(600, 2)
	acc := fitPredictAccuracy(t, &DecisionTree{}, X, y)
	if acc < 0.9 {
		t.Errorf("XOR accuracy = %.3f, want >= 0.9 (trees handle XOR)", acc)
	}
}

func TestDecisionTreeDepthLimit(t *testing.T) {
	X, y := xorData(400, 3)
	tr := &DecisionTree{MaxDepth: 3}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := treeDepth(tr); d > 3 {
		t.Errorf("Depth = %d, want <= 3", d)
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {0.2}, {5}, {5.1}}
	y := []int{0, 0, 0, 1, 1}
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := tr.Predict(X)
	for i := range y {
		if pred[i] != y[i] {
			t.Errorf("pred[%d] = %d, want %d", i, pred[i], y[i])
		}
	}
}

func TestRandomForestBeatsOnXOR(t *testing.T) {
	X, y := xorData(600, 5)
	acc := fitPredictAccuracy(t, &RandomForest{NTrees: 20, Seed: 1}, X, y)
	if acc < 0.9 {
		t.Errorf("forest XOR accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestRandomForestProbaRange(t *testing.T) {
	X, y := blobs(200, 3, 2, 7)
	f := &RandomForest{NTrees: 10, Seed: 2}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, p := range f.Proba(X) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("proba[%d] = %v out of [0,1]", i, p)
		}
	}
}

func TestGaussianNBSeparable(t *testing.T) {
	X, y := blobs(400, 4, 3, 11)
	acc := fitPredictAccuracy(t, &GaussianNB{}, X, y)
	if acc < 0.95 {
		t.Errorf("accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestGaussianNBProbaSumsToOneBinary(t *testing.T) {
	X, y := blobs(100, 2, 2, 13)
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := g.Proba(X)
	for i := range p {
		if p[i] < 0 || p[i] > 1 {
			t.Fatalf("proba out of range: %v", p[i])
		}
	}
}

func TestKNNSeparable(t *testing.T) {
	X, y := blobs(300, 3, 3, 17)
	acc := fitPredictAccuracy(t, &KNN{K: 3}, X, y)
	if acc < 0.95 {
		t.Errorf("accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestKNNSubsampleCap(t *testing.T) {
	X, y := blobs(500, 2, 3, 19)
	k := &KNN{K: 1, MaxTrain: 50}
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if len(k.x) != 50 {
		t.Errorf("stored %d rows, want 50", len(k.x))
	}
}

func TestLinearSVMSeparable(t *testing.T) {
	X, y := blobs(400, 4, 3, 23)
	acc := fitPredictAccuracy(t, &LinearSVM{Seed: 1}, X, y)
	if acc < 0.9 {
		t.Errorf("accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestMLPClassifierSeparable(t *testing.T) {
	X, y := blobs(300, 3, 3, 29)
	sc := &StandardScaler{}
	if err := sc.Fit(X); err != nil {
		t.Fatal(err)
	}
	acc := fitPredictAccuracy(t, &MLPClassifier{Hidden: []int{8}, Epochs: 40, Seed: 1}, sc.Transform(X), y)
	if acc < 0.9 {
		t.Errorf("accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestVotingEnsemble(t *testing.T) {
	X, y := blobs(300, 3, 3, 31)
	v := &VotingEnsemble{Members: []Classifier{
		&DecisionTree{},
		&GaussianNB{},
		&KNN{K: 3},
	}}
	acc := fitPredictAccuracy(t, v, X, y)
	if acc < 0.95 {
		t.Errorf("accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestOneClassSVMSeparatesOutliers(t *testing.T) {
	// The linear ν-OCSVM learns a halfspace {x : ⟨w,x⟩ ≥ ρ}; test it on a
	// one-sided layout it can express (kernelized layouts are covered by
	// TestNystromOCSVM).
	rng := NewRNG(37)
	var X [][]float64
	for i := 0; i < 300; i++ {
		X = append(X, []float64{2 + rng.NormFloat64()*0.3, 2 + rng.NormFloat64()*0.3})
	}
	o := &OneClassSVM{Nu: 0.1, Seed: 1}
	th := &Thresholded{Detector: o, Quantile: 0.95}
	y := make([]int, len(X))
	if err := th.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	inlier := [][]float64{{2, 2}, {2.1, 1.9}}
	outlier := [][]float64{{-8, -8}, {-9, -7}}
	si := o.Score(inlier)
	so := o.Score(outlier)
	for i := range si {
		if si[i] >= so[0] || si[i] >= so[1] {
			t.Errorf("inlier score %v not below outlier scores %v", si[i], so)
		}
	}
}

func TestGMMDensity(t *testing.T) {
	rng := NewRNG(41)
	var X [][]float64
	for i := 0; i < 200; i++ {
		X = append(X, []float64{rng.NormFloat64()*0.2 + 1, rng.NormFloat64()*0.2 + 1})
	}
	for i := 0; i < 200; i++ {
		X = append(X, []float64{rng.NormFloat64()*0.2 - 1, rng.NormFloat64()*0.2 - 1})
	}
	g := &GMM{K: 2, Seed: 1}
	if err := g.Fit(X); err != nil {
		t.Fatal(err)
	}
	in := g.Score([][]float64{{1, 1}})[0]
	out := g.Score([][]float64{{10, -10}})[0]
	if in >= out {
		t.Errorf("in-distribution score %v should be below outlier score %v", in, out)
	}
}

func TestKMeansTwoClusters(t *testing.T) {
	rng := NewRNG(43)
	var X [][]float64
	for i := 0; i < 100; i++ {
		X = append(X, []float64{rng.NormFloat64()*0.1 + 5, rng.NormFloat64() * 0.1})
		X = append(X, []float64{rng.NormFloat64()*0.1 - 5, rng.NormFloat64() * 0.1})
	}
	km := &KMeans{K: 2, Seed: 1}
	if err := km.Fit(X); err != nil {
		t.Fatal(err)
	}
	c0, c1 := km.Centers[0][0], km.Centers[1][0]
	if c0 > c1 {
		c0, c1 = c1, c0
	}
	if math.Abs(c0+5) > 0.5 || math.Abs(c1-5) > 0.5 {
		t.Errorf("centers %v, %v; want near ±5", c0, c1)
	}
}

func TestNystromOCSVM(t *testing.T) {
	// A ring of normal points: linear OCSVM cannot model it; Nyström can.
	rng := NewRNG(47)
	var X [][]float64
	for i := 0; i < 300; i++ {
		theta := rng.Float64() * 2 * math.Pi
		r := 1 + rng.NormFloat64()*0.05
		X = append(X, []float64{r * math.Cos(theta), r * math.Sin(theta)})
	}
	p := &DetectorPipeline{
		Steps:    []Transformer{&NystromMap{M: 32, Gamma: 2, Seed: 1}},
		Detector: &OneClassSVM{Nu: 0.1, Seed: 1},
	}
	if err := p.Fit(X); err != nil {
		t.Fatal(err)
	}
	onRing := p.Score([][]float64{{1, 0}, {0, -1}})
	center := p.Score([][]float64{{0, 0}})
	far := p.Score([][]float64{{4, 4}})
	for _, s := range onRing {
		if s >= far[0] {
			t.Errorf("ring score %v should be below far-outlier score %v", s, far[0])
		}
		if s >= center[0] {
			t.Errorf("ring score %v should be below center score %v (non-linear boundary)", s, center[0])
		}
	}
}

func TestAutoencoderReconstruction(t *testing.T) {
	rng := NewRNG(53)
	var X [][]float64
	for i := 0; i < 300; i++ {
		a := rng.Float64()
		X = append(X, []float64{a, a, 1 - a, a * 0.5}) // rank-1 structure
	}
	ae := &Autoencoder{Hidden: []int{2}, Epochs: 60, Seed: 1}
	if err := ae.Fit(X); err != nil {
		t.Fatal(err)
	}
	normal := ae.Score(X[:10])
	anomaly := ae.Score([][]float64{{1, 0, 1, 1}}) // breaks the structure
	for _, s := range normal {
		if s >= anomaly[0] {
			t.Errorf("normal RMSE %v should be below anomaly RMSE %v", s, anomaly[0])
		}
	}
}

func TestKitNETClustersRespectCap(t *testing.T) {
	rng := NewRNG(59)
	X := make([][]float64, 200)
	for i := range X {
		base := rng.Float64()
		row := make([]float64, 25)
		for j := range row {
			if j < 12 {
				row[j] = base + rng.NormFloat64()*0.01
			} else {
				row[j] = rng.Float64()
			}
		}
		X[i] = row
	}
	k := &KitNET{MaxAESize: 5, Epochs: 1, Seed: 1}
	if err := k.Fit(X); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range k.clusters {
		if len(c) > 5 {
			t.Errorf("cluster size %d exceeds cap 5", len(c))
		}
		total += len(c)
	}
	if total != 25 {
		t.Errorf("clusters cover %d features, want 25", total)
	}
}

func TestKitNETDetectsAnomaly(t *testing.T) {
	rng := NewRNG(61)
	X := make([][]float64, 400)
	for i := range X {
		a := rng.Float64()
		X[i] = []float64{a, a * 2, 1 - a, 0.5, a * a}
	}
	k := &KitNET{Epochs: 5, Seed: 1}
	if err := k.Fit(X); err != nil {
		t.Fatal(err)
	}
	normal := k.Score(X[:20])
	anomalous := k.Score([][]float64{{1, 0, 1, 5, -3}})
	maxNormal := 0.0
	for _, s := range normal {
		if s > maxNormal {
			maxNormal = s
		}
	}
	if anomalous[0] <= maxNormal {
		t.Errorf("anomaly score %v not above max normal %v", anomalous[0], maxNormal)
	}
}

func TestAutoMLPicksWinner(t *testing.T) {
	X, y := xorData(500, 67)
	a := &AutoML{Seed: 1}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if a.best == nil {
		t.Error("no winning candidate after Fit")
	}
	acc := Accuracy(y, a.Predict(X))
	if acc < 0.9 {
		t.Errorf("train accuracy = %.3f, want >= 0.9 on XOR", acc)
	}
	// NB is axis-Gaussian and cannot model XOR; the winner must not be it.
	if _, ok := a.best.(*GaussianNB); ok {
		t.Errorf("automl picked gnb on XOR data")
	}
}

func TestThresholdedQuantileCalibration(t *testing.T) {
	rng := NewRNG(71)
	X := make([][]float64, 200)
	y := make([]int, 200)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
	}
	th := &Thresholded{Detector: &GMM{K: 1, Seed: 1}, Quantile: 0.9}
	if err := th.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := th.Predict(X)
	flagged := 0
	for _, p := range pred {
		flagged += p
	}
	// Roughly 10% of training data should exceed the 0.9 quantile.
	if flagged < 5 || flagged > 40 {
		t.Errorf("flagged %d/200, want near 20", flagged)
	}
}
