package mlkit

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The fit grows a tree by partitioning columns sorted once per fit. It
// replaced a grower that re-sorted every candidate column at every node
// and fitted each forest tree on a materialized bootstrap copy of X.
// This file keeps that grower as the reference and pins the fit to it
// bit for bit.

// refTreeFit is the old DecisionTree.Fit.
func refTreeFit(t *DecisionTree, X [][]float64, y []int) {
	d, err := checkXY(X, y)
	if err != nil {
		panic(err)
	}
	t.flat = flatTrees{classes: classCount(y), roots: []int32{0}}
	t.rng = NewRNG(t.Seed)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	refGrow(t, X, y, idx, 0, d)
}

// refForestFit is the old RandomForest.Fit, one tree after another: each
// tree is fitted on a bootstrap copy of the rows.
func refForestFit(f *RandomForest, X [][]float64, y []int) {
	d, err := checkXY(X, y)
	if err != nil {
		panic(err)
	}
	maxFeat := f.MaxFeatures
	if maxFeat == 0 {
		maxFeat = max(int(math.Round(math.Sqrt(float64(d)))), 1)
	}
	n := len(X)
	f.trees = make([]*DecisionTree, f.nTrees())
	for ti := range f.trees {
		rng := NewRNG(f.Seed + int64(ti)*7919)
		bx := make([][]float64, n)
		by := make([]int, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		tree := &DecisionTree{
			MaxDepth:       f.MaxDepth,
			MinSamplesLeaf: f.MinSamplesLeaf,
			MaxFeatures:    maxFeat,
			Seed:           f.Seed + int64(ti)*104729,
		}
		refTreeFit(tree, bx, by)
		f.trees[ti] = tree
	}
	f.classes = classCount(y)
	if f.flat, err = flattenTrees(f.trees); err != nil {
		panic(err)
	}
}

// refGrow is the old DecisionTree.grow.
func refGrow(t *DecisionTree, X [][]float64, y []int, idx []int, depth, d int) int32 {
	counts := make([]float64, t.flat.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	id := int32(len(t.flat.nodes))
	t.flat.nodes = append(t.flat.nodes, flatNode{feature: -1})

	pure := false
	for _, c := range counts {
		if c == float64(len(idx)) {
			pure = true
			break
		}
	}
	if pure || depth >= t.maxDepth() || len(idx) < 2*t.minLeaf() {
		t.makeLeaf(id, counts, float64(len(idx)))
		return id
	}

	feat, thr, ok := refBestSplit(t, X, y, idx, d)
	if !ok {
		t.makeLeaf(id, counts, float64(len(idx)))
		return id
	}

	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.minLeaf() || len(right) < t.minLeaf() {
		t.makeLeaf(id, counts, float64(len(idx)))
		return id
	}
	refGrow(t, X, y, left, depth+1, d)
	r := refGrow(t, X, y, right, depth+1, d)
	t.flat.nodes[id] = flatNode{threshold: thr, feature: int32(feat), right: r}
	return id
}

// refBestSplit is the old DecisionTree.bestSplit: it sorts every
// candidate column of the node's rows and scans it.
func refBestSplit(t *DecisionTree, X [][]float64, y []int, idx []int, d int) (feat int, thr float64, ok bool) {
	feats := t.candidateFeatures(d)
	bestGain := 0.0
	n := float64(len(idx))

	parentCounts := make([]float64, t.flat.classes)
	for _, i := range idx {
		parentCounts[y[i]]++
	}
	parentGini := giniFromCounts(parentCounts, n)

	type sv struct {
		v float64
		y int
	}
	vals := make([]sv, len(idx))
	leftCounts := make([]float64, t.flat.classes)
	rightCounts := make([]float64, t.flat.classes)

	for _, f := range feats {
		for k, i := range idx {
			vals[k] = sv{X[i][f], y[i]}
		}
		slices.SortFunc(vals, func(a, b sv) int {
			if a.v < b.v {
				return -1
			}
			if b.v < a.v {
				return 1
			}
			return 0
		})
		for j := range leftCounts {
			leftCounts[j] = 0
		}
		copy(rightCounts, parentCounts)
		for k := 0; k < len(vals)-1; k++ {
			leftCounts[vals[k].y]++
			rightCounts[vals[k].y]--
			if vals[k].v == vals[k+1].v {
				continue
			}
			nl, nr := float64(k+1), n-float64(k+1)
			g := parentGini - (nl/n)*giniFromCounts(leftCounts, nl) - (nr/n)*giniFromCounts(rightCounts, nr)
			if g > bestGain+1e-12 {
				bestGain = g
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// assertFlatEqual fails unless got and want hold the same nodes, leaves,
// roots and class count, bit for bit.
func assertFlatEqual(t *testing.T, what string, got, want *flatTrees) {
	t.Helper()
	if got.classes != want.classes || !slices.Equal(got.roots, want.roots) {
		t.Fatalf("%s: classes %d roots %v, reference fit gives %d %v", what, got.classes, got.roots, want.classes, want.roots)
	}
	if len(got.nodes) != len(want.nodes) || len(got.leaves) != len(want.leaves) {
		t.Fatalf("%s: %d nodes / %d leaf values, reference fit gives %d / %d", what, len(got.nodes), len(got.leaves), len(want.nodes), len(want.leaves))
	}
	for i, n := range got.nodes {
		w := want.nodes[i]
		if n.feature != w.feature || n.right != w.right || math.Float64bits(n.threshold) != math.Float64bits(w.threshold) {
			t.Fatalf("%s: node %d = %+v, reference fit gives %+v", what, i, n, w)
		}
	}
	for i, v := range got.leaves {
		if math.Float64bits(v) != math.Float64bits(want.leaves[i]) {
			t.Fatalf("%s: leaf value %d = %v, reference fit gives %v", what, i, v, want.leaves[i])
		}
	}
}

// fitCase is a training set for the fit oracle.
type fitCase struct {
	name string
	X    [][]float64
	y    []int
}

// fitOracleCases returns the training sets of forestFixtures plus sets
// built to stress the split scan: ties, duplicates, constant and binary
// columns, infinities and signed zeros.
func fitOracleCases(t *testing.T) []fitCase {
	var cases []fitCase
	for _, c := range forestFixtures(t) {
		cases = append(cases, fitCase{c.name, c.trainX, c.trainY})
	}
	// About one bootstrap in seven misses both rows of class 2.
	X, y := threeClass(300, 2, 17)
	cases = append(cases, fitCase{"three_class_rare", X, y})

	rng := NewRNG(41)
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	var tx [][]float64
	var ty []int
	for i := 0; i < 400; i++ {
		row := []float64{
			7,                           // constant
			float64(rng.Intn(2)),        // binary
			float64(rng.Intn(5)) * 0.25, // heavy ties
			rng.NormFloat64(),
			special[rng.Intn(len(special))], // ±Inf and ±0 only
			float64(rng.Intn(3)) - 1,        // -1, 0, 1; 0 signed below
		}
		if row[5] == 0 && rng.Intn(2) == 0 {
			row[5] = math.Copysign(0, -1)
		}
		if rng.Intn(4) == 0 {
			row[3] = special[rng.Intn(len(special))]
		}
		label := 0
		if row[1]+row[2] > 1 || (row[4] > 0) != (row[5] < 0) {
			label = 1
		}
		if rng.Intn(20) == 0 {
			label = 2
		}
		tx = append(tx, row)
		ty = append(ty, label)
		if i%5 == 0 { // duplicate rows
			tx = append(tx, slices.Clone(row))
			ty = append(ty, label)
		}
	}
	cases = append(cases, fitCase{"ties_inf_signed_zero", tx, ty})
	return cases
}

// TestFitMatchesPerNodeSortOracle: every tree the presorted fit grows —
// alone or in a forest, under each depth, leaf-size and feature-sampling
// setting — has the nodes, thresholds and leaf distributions of the tree
// the per-node-sort grower grows, bit for bit.
func TestFitMatchesPerNodeSortOracle(t *testing.T) {
	type params struct{ minLeaf, maxDepth, maxFeat int }
	for _, c := range fitOracleCases(t) {
		d := len(c.X[0])
		for _, p := range []params{{0, 0, 0}, {5, 0, 0}, {0, 3, 0}, {0, 0, 1}, {0, 0, d}, {5, 3, 1}} {
			what := fmt.Sprintf("%s minLeaf=%d maxDepth=%d maxFeat=%d", c.name, p.minLeaf, p.maxDepth, p.maxFeat)
			tr := &DecisionTree{MinSamplesLeaf: p.minLeaf, MaxDepth: p.maxDepth, MaxFeatures: p.maxFeat, Seed: 3}
			ref := *tr
			if err := tr.Fit(c.X, c.y); err != nil {
				t.Fatal(err)
			}
			refTreeFit(&ref, c.X, c.y)
			assertFlatEqual(t, what+" tree", &tr.flat, &ref.flat)

			nTrees := 12
			if len(c.X) > 2000 {
				nTrees = 4
			}
			f := &RandomForest{NTrees: nTrees, MinSamplesLeaf: p.minLeaf, MaxDepth: p.maxDepth, MaxFeatures: p.maxFeat, Seed: 5}
			rf := *f
			if err := f.Fit(c.X, c.y); err != nil {
				t.Fatal(err)
			}
			refForestFit(&rf, c.X, c.y)
			if f.classes != rf.classes {
				t.Fatalf("%s forest: %d classes, reference fit gives %d", what, f.classes, rf.classes)
			}
			assertFlatEqual(t, what+" forest", &f.flat, &rf.flat)
			for i := range f.trees {
				assertFlatEqual(t, fmt.Sprintf("%s forest tree %d", what, i), &f.trees[i].flat, &rf.trees[i].flat)
			}
		}
	}
}

// TestTreeFitInvariantToRowOrder: with every feature a candidate at
// every node, a tree fitted on a row-permuted copy of its training set
// is the same tree. NaN sorts after +Inf wherever it lies in the input,
// so this holds with NaN columns too.
func TestTreeFitInvariantToRowOrder(t *testing.T) {
	X, y := threeClass(400, 0, 43)
	withNaN := make([][]float64, len(X))
	rng := NewRNG(47)
	for i, row := range X {
		r := slices.Clone(row)
		if rng.Intn(5) == 0 {
			r[0] = math.NaN()
		}
		if rng.Intn(3) == 0 {
			r[2] = math.NaN()
		}
		withNaN[i] = r
	}
	for _, c := range []fitCase{{"finite", X, y}, {"nan_columns", withNaN, y}} {
		perm := NewRNG(53).Perm(len(c.X))
		px := make([][]float64, len(c.X))
		py := make([]int, len(c.y))
		for i, j := range perm {
			px[i], py[i] = c.X[j], c.y[j]
		}
		a, b := &DecisionTree{Seed: 1}, &DecisionTree{Seed: 1}
		if err := a.Fit(c.X, c.y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(px, py); err != nil {
			t.Fatal(err)
		}
		if len(a.flat.nodes) < 3 {
			t.Fatalf("%s: tree has %d nodes; the case needs splits", c.name, len(a.flat.nodes))
		}
		assertFlatEqual(t, c.name+" permuted rows", &b.flat, &a.flat)
	}
}

// TestTreeFitNaNGoesRight: NaN rows take the right branch at every split,
// as scoring routes them, and no threshold is NaN.
func TestTreeFitNaNGoesRight(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {math.NaN()}, {10}, {11}, {math.NaN()}, {12}}
	y := []int{0, 0, 0, 1, 1, 1, 1, 1}
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, n := range tr.flat.nodes {
		if n.feature >= 0 && math.IsNaN(n.threshold) {
			t.Fatalf("node %d has a NaN threshold", i)
		}
	}
	if got := tr.flat.nodes[0]; got.feature != 0 || got.threshold != 6.5 {
		t.Fatalf("root = %+v, want feature 0 threshold 6.5", got)
	}
	pred := tr.Predict(X)
	if !slices.Equal(pred, y) {
		t.Fatalf("training rows predict %v, want %v", pred, y)
	}
}
