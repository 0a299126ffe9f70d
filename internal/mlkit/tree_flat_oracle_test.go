package mlkit

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// The flat kernel (flatTrees.predictProba) replaced a pointer-node walk
// that scored every tree into its own [][]float64 and summed them. This
// file keeps that walk as the reference and pins the kernel to it bit for
// bit. The reference reads a tree through its persistence DTO, which is
// the old node layout (explicit l/r children, one p slice per leaf).

// refLeaf is the old DecisionTree.leafProba.
func refLeaf(d treeDTO, row []float64) []float64 {
	if len(d.Nodes) == 0 {
		return []float64{1, 0}
	}
	id := int32(0)
	for {
		n := &d.Nodes[id]
		if n.Feature < 0 {
			return n.Proba
		}
		if row[n.Feature] <= float64(n.Threshold) {
			id = n.Left
		} else {
			id = n.Right
		}
	}
}

// refTree is the old DecisionTree.Predict and Proba.
func refTree(t *DecisionTree, X [][]float64) ([]int, []float64) {
	d := t.dto()
	pred := make([]int, len(X))
	proba := make([]float64, len(X))
	for i, row := range X {
		p := refLeaf(d, row)
		pred[i] = ArgMax(p)
		if len(p) > 1 {
			proba[i] = p[1]
		}
	}
	return pred, proba
}

// refForest is the old RandomForest.classProba followed by Predict and
// Proba: one distribution per row per tree, summed tree-major into
// classes columns, scaled by 1/nTrees.
func refForest(f *RandomForest, X [][]float64) ([]int, []float64) {
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = make([]float64, f.classes)
	}
	for _, tree := range f.trees {
		d := tree.dto()
		for i, row := range X {
			p := refLeaf(d, row)
			for j := range p {
				if j < f.classes {
					out[i][j] += p[j]
				}
			}
		}
	}
	if len(f.trees) > 0 {
		inv := 1 / float64(len(f.trees))
		for i := range out {
			for j := range out[i] {
				out[i][j] *= inv
			}
		}
	}
	pred := make([]int, len(X))
	proba := make([]float64, len(X))
	for i, p := range out {
		pred[i] = ArgMax(p)
		if len(p) > 1 {
			proba[i] = p[1]
		}
	}
	return pred, proba
}

func assertBitIdentical(t *testing.T, what string, gotPred, wantPred []int, gotProba, wantProba []float64) {
	t.Helper()
	if len(gotPred) != len(wantPred) || len(gotProba) != len(wantProba) {
		t.Fatalf("%s: got %d preds / %d scores, want %d / %d", what, len(gotPred), len(gotProba), len(wantPred), len(wantProba))
	}
	for i := range wantPred {
		if gotPred[i] != wantPred[i] {
			t.Fatalf("%s: row %d pred = %d, reference walk says %d", what, i, gotPred[i], wantPred[i])
		}
		if math.Float64bits(gotProba[i]) != math.Float64bits(wantProba[i]) {
			t.Fatalf("%s: row %d score = %v (%#x), reference walk says %v (%#x)", what, i,
				gotProba[i], math.Float64bits(gotProba[i]), wantProba[i], math.Float64bits(wantProba[i]))
		}
	}
}

// assertForestMatchesReference checks all three entry points of f against
// the reference walk.
func assertForestMatchesReference(t *testing.T, what string, f *RandomForest, X [][]float64) {
	t.Helper()
	wantPred, wantProba := refForest(f, X)
	pred, proba := PredictProba(f, X, nil, nil)
	assertBitIdentical(t, what+" PredictProba", pred, wantPred, proba, wantProba)
	assertBitIdentical(t, what+" Predict/Proba", f.Predict(X), wantPred, f.Proba(X), wantProba)
}

// assertTreeMatchesReference is assertForestMatchesReference for one tree.
func assertTreeMatchesReference(t *testing.T, what string, tr *DecisionTree, X [][]float64) {
	t.Helper()
	wantPred, wantProba := refTree(tr, X)
	pred, proba := PredictProba(tr, X, nil, nil)
	assertBitIdentical(t, what+" PredictProba", pred, wantPred, proba, wantProba)
	assertBitIdentical(t, what+" Predict/Proba", tr.Predict(X), wantPred, tr.Proba(X), wantProba)
}

// threeClass draws three noisy clusters; rare rows of the third class
// are appended when rare > 0.
func threeClass(n, rare int, seed int64) ([][]float64, []int) {
	rng := NewRNG(seed)
	var X [][]float64
	var y []int
	for i := 0; i < n; i++ {
		label := i % 3
		if rare > 0 {
			label = i % 2
		}
		X = append(X, []float64{float64(label) + 0.8*rng.NormFloat64(), rng.NormFloat64(), float64(label) - 0.6*rng.NormFloat64(), rng.Float64()})
		y = append(y, label)
	}
	for i := 0; i < rare; i++ {
		X = append(X, []float64{2 + 0.3*rng.NormFloat64(), rng.NormFloat64(), 2, rng.Float64()})
		y = append(y, 2)
	}
	return X, y
}

func TestFlatKernelBitIdenticalToReferenceWalk(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		X, y := blobs(600, 6, 1.0, 11)
		f := &RandomForest{NTrees: 25, Seed: 3}
		if err := f.Fit(X[:400], y[:400]); err != nil {
			t.Fatal(err)
		}
		assertForestMatchesReference(t, "forest", f, X)

		tr := &DecisionTree{Seed: 3}
		if err := tr.Fit(X[:400], y[:400]); err != nil {
			t.Fatal(err)
		}
		assertTreeMatchesReference(t, "tree", tr, X)
	})

	t.Run("three_class", func(t *testing.T) {
		X, y := threeClass(600, 0, 13)
		// 7 trees: 1/7 is not a power of two, so the final scaling rounds.
		f := &RandomForest{NTrees: 7, MaxDepth: 6, Seed: 5}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if f.flat.classes != 3 {
			t.Fatalf("flat layout has %d classes, want 3", f.flat.classes)
		}
		assertForestMatchesReference(t, "forest", f, X)

		tr := &DecisionTree{MaxDepth: 6, Seed: 5}
		if err := tr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		assertTreeMatchesReference(t, "tree", tr, X)
	})

	// Two rows of class 2 among 302: about one bootstrap in seven misses
	// both, so that tree counts two classes while the forest counts three
	// and its leaves must be padded.
	t.Run("tree_with_fewer_classes", func(t *testing.T) {
		X, y := threeClass(300, 2, 17)
		f := &RandomForest{NTrees: 40, Seed: 7}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		narrow := 0
		for _, tr := range f.trees {
			if tr.flat.classes < f.classes {
				narrow++
			}
		}
		if narrow == 0 || narrow == len(f.trees) {
			t.Fatalf("%d of %d trees saw fewer classes than the forest; the case needs some but not all", narrow, len(f.trees))
		}
		assertForestMatchesReference(t, "forest", f, X)
	})

	// Several block budgets of small trees around one tree larger than a
	// budget, which must form a block of its own between the cuts. Depth-6
	// trees have impure leaves, so a row's sums depend on their order.
	t.Run("many_blocks", func(t *testing.T) {
		X, y := threeClass(3600, 0, 29)
		small := &RandomForest{NTrees: 120, MaxDepth: 6, Seed: 9}
		if err := small.Fit(X[:1200], y[:1200]); err != nil {
			t.Fatal(err)
		}
		noisy := make([]int, len(y))
		rng := NewRNG(31)
		for i := range noisy {
			noisy[i] = rng.Intn(3)
		}
		big := &DecisionTree{Seed: 9}
		if err := big.Fit(X, noisy); err != nil {
			t.Fatal(err)
		}
		if n := len(big.flat.nodes); n <= blockNodes {
			t.Fatalf("big tree has %d nodes, want more than the %d-node block budget", n, blockNodes)
		}
		f := &RandomForest{classes: 3}
		f.trees = append(f.trees, small.trees[:50]...)
		f.trees = append(f.trees, big)
		f.trees = append(f.trees, small.trees[50:]...)
		var err error
		if f.flat, err = flattenTrees(f.trees); err != nil {
			t.Fatal(err)
		}
		if n := len(f.flat.nodes); n < 4*blockNodes {
			t.Fatalf("forest has %d nodes, want several %d-node block budgets", n, blockNodes)
		}
		assertForestMatchesReference(t, "forest", f, X)
		assertTreeMatchesReference(t, "big tree", big, X)
	})

	t.Run("nan_inf_signed_zero_rows", func(t *testing.T) {
		X, y := threeClass(400, 0, 37)
		f := &RandomForest{NTrees: 9, Seed: 11}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		tr := &DecisionTree{Seed: 11}
		if err := tr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		var rows [][]float64
		for i, row := range X[:100] {
			r := append([]float64(nil), row...)
			r[i%len(r)] = special[i%len(special)]
			rows = append(rows, r)
		}
		for _, v := range special {
			rows = append(rows, []float64{v, v, v, v})
		}
		assertForestMatchesReference(t, "forest", f, rows)
		assertTreeMatchesReference(t, "tree", tr, rows)
	})

	t.Run("unfitted", func(t *testing.T) {
		X, _ := blobs(9, 3, 1.0, 19)
		assertForestMatchesReference(t, "forest", &RandomForest{}, X)
		assertTreeMatchesReference(t, "tree", &DecisionTree{}, X)
	})

	t.Run("empty_X", func(t *testing.T) {
		X, y := blobs(100, 3, 1.0, 23)
		f := &RandomForest{NTrees: 5, Seed: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, empty := range [][][]float64{nil, {}} {
			pred, proba := PredictProba(f, empty, nil, nil)
			if pred == nil || proba == nil || len(pred) != 0 || len(proba) != 0 {
				t.Fatalf("empty X: got pred %v proba %v, want empty non-nil slices as Predict and Proba returned", pred, proba)
			}
		}
	})

	t.Run("save_load_round_trip", func(t *testing.T) {
		X, y := threeClass(300, 2, 17)
		f := &RandomForest{NTrees: 40, Seed: 7}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, f).(*RandomForest)
		assertForestMatchesReference(t, "loaded forest", loaded, X)
		wantPred, wantProba := PredictProba(f, X, nil, nil)
		pred, proba := PredictProba(loaded, X, nil, nil)
		assertBitIdentical(t, "loaded vs fitted forest", pred, wantPred, proba, wantProba)

		tr := &DecisionTree{Seed: 7}
		if err := tr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		lt := roundTrip(t, tr).(*DecisionTree)
		wantPred, wantProba = refTree(tr, X)
		pred, proba = PredictProba(lt, X, nil, nil)
		assertBitIdentical(t, "loaded tree", pred, wantPred, proba, wantProba)
	})
}

// TestLoadRenumbersNonPreorderTree: a model file need not list nodes in
// the order Fit emits them; loading renumbers by a depth-first walk and
// scores exactly as the listed tree would.
func TestLoadRenumbersNonPreorderTree(t *testing.T) {
	// Root at 0, its children listed right-first and leaves interleaved.
	const model = `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[
		{"f":0,"t":0.5,"l":4,"r":1},
		{"f":1,"t":0.5,"l":3,"r":2},
		{"f":-1,"t":0,"l":0,"r":0,"p":[0.1,0.9]},
		{"f":-1,"t":0,"l":0,"r":0,"p":[0.7,0.3]},
		{"f":-1,"t":0,"l":0,"r":0,"p":[1,0]}]}}`
	c, err := UnmarshalModel([]byte(model))
	if err != nil {
		t.Fatal(err)
	}
	X := [][]float64{{0.2, 0.9}, {0.9, 0.2}, {0.9, 0.9}, {0.5, 0.5}}
	pred, proba := PredictProba(c, X, nil, nil)
	wantPred, wantProba := []int{0, 0, 1, 0}, []float64{0, 0.3, 0.9, 0}
	assertBitIdentical(t, "renumbered tree", pred, wantPred, proba, wantProba)
	if d := treeDepth(c.(*DecisionTree)); d != 2 {
		t.Errorf("depth = %d, want 2", d)
	}
}

// TestForestScoreAllocations pins the kernel's allocation count: a warm
// call into caller buffers allocates nothing, whatever the tree and block
// count (the accumulator comes from a pool). Under the race detector the
// pool drops Puts at random, so a call may allocate its accumulator anew.
func TestForestScoreAllocations(t *testing.T) {
	want := 0.0
	if raceEnabled {
		want = 1
	}
	for _, c := range forestFixtures(t) {
		pred, proba := make([]int, len(c.X)), make([]float64, len(c.X))
		if n := testing.AllocsPerRun(10, func() { c.m.PredictProba(c.X, pred, proba) }); n > want {
			t.Errorf("%s over a 512-row chunk allocates %.0f times per warm call into caller buffers, want at most %.0f", c.name, n, want)
		}
	}
}

// TestForestSharedAcrossGoroutines: a fitted forest keeps no inference
// scratch (each call takes its accumulator from a pool), so one instance
// may be scored from many goroutines at once. Run under -race this
// proves the kernel only reads the flat node and leaf arrays; the
// outputs must equal the serial call's.
func TestForestSharedAcrossGoroutines(t *testing.T) {
	X, y := blobs(120, 3, 1.0, 7)
	f := &RandomForest{NTrees: 20, Seed: 3}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	wantPred, wantProba := PredictProba(f, X, nil, nil)
	const readers = 8
	preds := make([][]int, readers)
	probas := make([][]float64, readers)
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				preds[k], probas[k] = PredictProba(f, X, nil, nil)
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < readers; k++ {
		assertBitIdentical(t, fmt.Sprintf("reader %d", k), preds[k], wantPred, probas[k], wantProba)
	}
}

// treeDepth reports the maximum depth of a fitted tree (root = 0).
func treeDepth(t *DecisionTree) int {
	if len(t.flat.nodes) == 0 {
		return 0
	}
	var walk func(id int32) int
	walk = func(id int32) int {
		n := &t.flat.nodes[id]
		if n.feature < 0 {
			return 0
		}
		l, r := walk(id+1), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
