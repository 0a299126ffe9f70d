package mlkit

import "slices"

// DecisionTree is a CART classifier using Gini impurity with axis-aligned
// numeric splits. The zero value trains with sensible defaults.
type DecisionTree struct {
	// MaxDepth limits tree depth; 0 means 24.
	MaxDepth int
	// MinSamplesLeaf is the minimum rows per leaf; 0 means 1.
	MinSamplesLeaf int
	// MaxFeatures is the number of candidate features per split; 0 means
	// all features (set by RandomForest to sqrt(d)).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures < d.
	Seed int64

	flat flatTrees
	rng  *RNG
}

// flatNode is one node of a flattened tree. Nodes are stored in preorder,
// so an internal node's left child is implicit at id+1 and only the right
// child is recorded. A leaf has feature -1 and keeps, in right, the offset
// of its class distribution in flatTrees.leaves.
type flatNode struct {
	threshold float64
	feature   int32
	right     int32
}

// flatTrees is the scoring layout shared by DecisionTree (one root) and
// RandomForest (one root per tree): every node of every tree in one
// pointer-free array, every leaf distribution in one flat slice with a
// stride of classes. It is immutable once built, so scoring replicas
// share it.
type flatTrees struct {
	nodes   []flatNode
	leaves  []float64
	roots   []int32
	classes int
}

// Fit grows the tree on X, y.
func (t *DecisionTree) Fit(X [][]float64, y []int) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	t.flat = flatTrees{classes: classCount(y), roots: []int32{0}}
	t.rng = NewRNG(t.Seed)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.grow(X, y, idx, 0, d)
	return nil
}

func (t *DecisionTree) maxDepth() int {
	if t.MaxDepth == 0 {
		return 24
	}
	return t.MaxDepth
}

func (t *DecisionTree) minLeaf() int {
	if t.MinSamplesLeaf == 0 {
		return 1
	}
	return t.MinSamplesLeaf
}

// grow recursively builds the subtree over rows idx and returns its node
// id. A node is appended before its subtrees and the left subtree is grown
// first, which is the preorder flatNode relies on.
func (t *DecisionTree) grow(X [][]float64, y []int, idx []int, depth, d int) int32 {
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
		t.makeLeaf(id, counts, len(idx))
		return id
	}

	feat, thr, ok := t.bestSplit(X, y, idx, d)
	if !ok {
		t.makeLeaf(id, counts, len(idx))
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
		t.makeLeaf(id, counts, len(idx))
		return id
	}
	t.grow(X, y, left, depth+1, d)
	r := t.grow(X, y, right, depth+1, d)
	t.flat.nodes[id] = flatNode{threshold: thr, feature: int32(feat), right: r}
	return id
}

// makeLeaf appends the class distribution counts/n and points node id at it.
func (t *DecisionTree) makeLeaf(id int32, counts []float64, n int) {
	t.flat.nodes[id].right = int32(len(t.flat.leaves))
	for _, c := range counts {
		p := 0.0
		if n > 0 {
			p = c / float64(n)
		}
		t.flat.leaves = append(t.flat.leaves, p)
	}
}

// bestSplit scans candidate features for the Gini-optimal threshold.
func (t *DecisionTree) bestSplit(X [][]float64, y []int, idx []int, d int) (feat int, thr float64, ok bool) {
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

func (t *DecisionTree) candidateFeatures(d int) []int {
	if t.MaxFeatures <= 0 || t.MaxFeatures >= d {
		all := make([]int, d)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := t.rng.Perm(d)
	return perm[:t.MaxFeatures]
}

func giniFromCounts(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// PredictProba walks each row to its leaf once and returns both the
// majority class and the positive-class (label 1) leaf fraction. An
// unfitted tree predicts all-benign with zero scores.
func (t *DecisionTree) PredictProba(X [][]float64) ([]int, []float64) {
	return t.flat.predictProba(X)
}

// Predict returns the majority class at each row's leaf.
func (t *DecisionTree) Predict(X [][]float64) []int {
	pred, _ := t.PredictProba(X)
	return pred
}

// Proba returns the positive-class (label 1) leaf fraction per row.
func (t *DecisionTree) Proba(X [][]float64) []float64 {
	_, proba := t.PredictProba(X)
	return proba
}

// blockNodes is the node budget of one tree block: 2 048 nodes are
// 32 KiB, which stay in L1 while every row of a chunk walks the block.
// Without blocks, a forest larger than L1 is re-read for every row.
const blockNodes = 2048

// start returns tree t's first node. Trees occupy consecutive node
// ranges, so tree t spans [start(t), start(t+1)), and start(len(roots))
// is len(nodes).
func (f *flatTrees) start(t int) int {
	if t == len(f.roots) {
		return len(f.nodes)
	}
	return int(f.roots[t])
}

// predictProba is the one scoring kernel of the tree family. It cuts the
// trees into consecutive blocks of at most blockNodes nodes (a larger
// tree is a block of its own); for each block, each row walks every tree
// of the block in tree order and adds its leaf distribution into the
// row's slot of a len(X)×classes accumulator; then every row is scaled
// by 1/len(roots). A row's class sums therefore see the same float
// additions in the same order however the trees are cut or laid out
// (x+0 and x*1 are exact, which covers padded classes and the single
// tree). pred is the first arg-max class, proba the class-1 mean; with
// no trees both are all zeros.
func (f *flatTrees) predictProba(X [][]float64) ([]int, []float64) {
	pred := make([]int, len(X))
	proba := make([]float64, len(X))
	if len(f.roots) == 0 {
		return pred, proba
	}
	nodes, leaves, roots, k := f.nodes, f.leaves, f.roots, f.classes
	acc := make([]float64, len(X)*k)
	for lo := 0; lo < len(roots); {
		hi := lo + 1
		for hi < len(roots) && f.start(hi+1)-f.start(lo) <= blockNodes {
			hi++
		}
		for i, row := range X {
			a := acc[i*k:][:k]
			for t := lo; t < hi; t++ {
				leaf := leaves[leafOf(nodes, roots[t], row):][:k]
				for j := range leaf {
					a[j] += leaf[j]
				}
			}
		}
		lo = hi
	}
	inv := 1 / float64(len(roots))
	for i := range pred {
		a := acc[i*k:][:k]
		for j := range a {
			a[j] *= inv
		}
		pred[i] = ArgMax(a)
		proba[i] = a[1]
	}
	return pred, proba
}

// leafOf follows row from node id down to a leaf and returns the offset of
// the leaf's class distribution.
func leafOf(nodes []flatNode, id int32, row []float64) int32 {
	n := &nodes[id]
	for n.feature >= 0 {
		if row[n.feature] <= n.threshold {
			id++
		} else {
			id = n.right
		}
		n = &nodes[id]
	}
	return n.right
}

// Depth reports the maximum depth of the fitted tree (root = 0).
func (t *DecisionTree) Depth() int {
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
