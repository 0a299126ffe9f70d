package mlkit

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling (sqrt(d) by default), trained in parallel.
type RandomForest struct {
	// NTrees is the ensemble size; 0 means 50.
	NTrees int
	// MaxDepth per tree; 0 means 24.
	MaxDepth int
	// MinSamplesLeaf per tree; 0 means 1.
	MinSamplesLeaf int
	// MaxFeatures per split; 0 means round(sqrt(d)).
	MaxFeatures int
	// Seed drives bootstrap sampling and per-tree seeds.
	Seed int64

	// trees and classes are what persistence writes; flat is what scores.
	trees   []*DecisionTree
	classes int
	flat    flatTrees
}

func (f *RandomForest) nTrees() int {
	if f.NTrees == 0 {
		return 50
	}
	return f.NTrees
}

// Fit trains the forest; trees are grown concurrently across CPUs, all
// from one presort of X.
func (f *RandomForest) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	maxFeat := f.MaxFeatures
	if maxFeat == 0 {
		maxFeat = max(int(math.Round(math.Sqrt(float64(d)))), 1)
	}
	n := len(X)
	f.trees = make([]*DecisionTree, f.nTrees())
	p := presort(X, d)

	workers := min(runtime.GOMAXPROCS(0), len(f.trees))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGrower(p, y)
			for ti := range jobs {
				// The bootstrap: n draws with replacement, kept as each
				// row's multiplicity.
				rng := NewRNG(f.Seed + int64(ti)*7919)
				clear(g.w)
				for i := 0; i < n; i++ {
					g.w[rng.Intn(n)]++
				}
				tree := &DecisionTree{
					MaxDepth:       f.MaxDepth,
					MinSamplesLeaf: f.MinSamplesLeaf,
					MaxFeatures:    maxFeat,
					Seed:           f.Seed + int64(ti)*104729,
				}
				g.fit(tree)
				f.trees[ti] = tree
			}
		}()
	}
	for ti := range f.trees {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()
	f.classes = classCount(y)
	f.flat, err = flattenTrees(f.trees)
	return err
}

// flattenTrees concatenates fitted trees into one scoring layout, in
// tree order. Its class count is the largest any tree saw; a tree whose
// bootstrap missed the highest labels has its leaf distributions
// zero-padded to it. (Classes no tree saw would only ever add zeros, so
// leaving them out changes neither the arg-max nor the class-1 mean.)
func flattenTrees(trees []*DecisionTree) (flatTrees, error) {
	out := flatTrees{roots: make([]int32, 0, len(trees))}
	nNodes, nLeaves := 0, 0
	for _, t := range trees {
		if t.flat.classes > out.classes {
			out.classes = t.flat.classes
		}
		nNodes += len(t.flat.nodes)
		nLeaves += len(t.flat.leaves) / t.flat.classes
	}
	classes := out.classes
	if nNodes > math.MaxInt32 || nLeaves > math.MaxInt32/classes {
		return flatTrees{}, fmt.Errorf("mlkit: random forest of %d nodes × %d classes exceeds the 32-bit node index", nNodes, classes)
	}
	nLeaves *= classes
	out.nodes = make([]flatNode, 0, nNodes)
	out.leaves = make([]float64, 0, nLeaves)
	for _, t := range trees {
		base := int32(len(out.nodes))
		out.roots = append(out.roots, base)
		for _, n := range t.flat.nodes {
			if n.feature < 0 {
				leaf := t.flat.leaves[n.right:][:t.flat.classes]
				n.right = int32(len(out.leaves))
				out.leaves = append(out.leaves, leaf...)
				for j := len(leaf); j < classes; j++ {
					out.leaves = append(out.leaves, 0)
				}
			} else {
				n.right += base
			}
			out.nodes = append(out.nodes, n)
		}
	}
	return out, nil
}

// PredictProba scores every row against every tree once and writes the
// class with the highest mean leaf probability plus the positive-class
// (label 1) mean.
func (f *RandomForest) PredictProba(X [][]float64, pred []int, proba []float64) bool {
	f.flat.predictProba(X, pred, proba)
	if f.classes == 0 {
		// Never fitted: there is no class to name, so — as ArgMax of an
		// empty distribution — every row predicts -1.
		for i := range X {
			pred[i] = -1
		}
	}
	return true
}

// Predict returns the class with the highest mean leaf probability.
func (f *RandomForest) Predict(X [][]float64) []int {
	pred, _ := PredictProba(f, X, nil, nil)
	return pred
}

// Proba returns the positive-class mean probability per row.
func (f *RandomForest) Proba(X [][]float64) []float64 {
	_, proba := PredictProba(f, X, nil, nil)
	return proba
}
