package mlkit

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"lumen/internal/mlkit/linalg"
)

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
	g := newGrower(presort(X, d), y)
	for i := range g.w {
		g.w[i] = 1
	}
	g.fit(t)
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

// presorted is a training set laid out by feature once per fit: each
// feature's values by row, and its rows in ascending value order, NaN
// after +Inf (-0 and +0 tie).
type presorted struct {
	val    [][]float64
	sorted [][]int32
}

func presort(X [][]float64, d int) presorted {
	n := len(X)
	vals, rows := make([]float64, d*n), make([]int32, d*n)
	p := presorted{val: make([][]float64, d), sorted: make([][]int32, d)}
	linalg.ParallelRows(d, func(flo, fhi int) {
		for f := flo; f < fhi; f++ {
			val, col := vals[f*n:(f+1)*n:(f+1)*n], rows[f*n:(f+1)*n:(f+1)*n]
			for i, row := range X {
				val[i], col[i] = row[f], int32(i)
			}
			slices.SortFunc(col, func(a, b int32) int {
				if an, bn := math.IsNaN(val[a]), math.IsNaN(val[b]); an || bn {
					return cmp.Compare(b2i(an), b2i(bn))
				}
				return cmp.Compare(val[a], val[b])
			})
			p.val[f], p.sorted[f] = val, col
		}
	})
	return p
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// grower grows trees from one presorted training set, on row weights (a
// forest tree's are its bootstrap multiplicities): a tree sees the rows
// weighed above zero. A node's rows are one segment [lo, hi) of each
// column laid out for it. A column is laid out on demand: taken from the
// presort and stably partitioned by each split down the path, so it
// stays sorted, only when a node draws it. A forest worker keeps one
// grower for all its trees.
type grower struct {
	presorted
	y           []int
	w           []float64 // each row's weight in the current tree
	in          []int     // 1 for a row weighed above zero
	cols        [][]int32 // per feature, the weighed rows laid out down to depth at[f] of the path
	at          []int     // -1 until the tree takes the feature from the presort
	path        []split   // the splits on the path to the current node, by depth
	tmp         []int32   // partition scratch
	left, right []float64 // split-scan class counts
}

// split is an internal node on the grower's path: rows [lo, hi) of the
// columns laid out for it, split at val[feat] <= thr.
type split struct {
	feat   int
	thr    float64
	lo, hi int
}

func newGrower(p presorted, y []int) *grower {
	n, d := len(y), len(p.sorted)
	return &grower{presorted: p, y: y, w: make([]float64, n), in: make([]int, n),
		cols: make([][]int32, d), at: make([]int, d), tmp: make([]int32, n)}
}

// fit grows t over the rows g.w weighs above zero. Class counts and
// sample sizes are sums of integer weights, exact in float64, so every
// gain, threshold and leaf equals that of a per-node sort of the sample
// with each row repeated weight times.
func (g *grower) fit(t *DecisionTree) {
	counts := make([]float64, classCount(g.y))
	classes, m, n := 2, 0, 0.0
	for i, wi := range g.w {
		g.in[i] = b2i(wi > 0)
		if wi > 0 {
			classes = max(classes, g.y[i]+1)
		}
		counts[g.y[i]] += wi
		m += g.in[i]
		n += wi
	}
	for f := range g.at {
		g.at[f] = -1
	}
	g.left, g.right = make([]float64, classes), make([]float64, classes)
	t.flat = flatTrees{classes: classes, roots: []int32{0}}
	t.rng = NewRNG(t.Seed)
	g.grow(t, 0, m, n, counts[:classes], 0)
}

// grow builds the subtree over segment [lo, hi) at depth depth, of
// weight n and class counts counts (which become the right child's), and
// returns its node id. Each node is appended before its subtrees, left
// first: the preorder flatNode relies on.
func (g *grower) grow(t *DecisionTree, lo, hi int, n float64, counts []float64, depth int) int32 {
	id := int32(len(t.flat.nodes))
	t.flat.nodes = append(t.flat.nodes, flatNode{feature: -1})
	if slices.Contains(counts, n) || depth >= t.maxDepth() || n < float64(2*t.minLeaf()) {
		t.makeLeaf(id, counts, n)
		return id
	}
	feat, thr, ok := g.bestSplit(t, lo, hi, n, counts, depth)
	if !ok {
		t.makeLeaf(id, counts, n)
		return id
	}
	left := make([]float64, len(counts))
	nl, mid := 0.0, lo
	for _, r := range g.cols[feat][lo:hi] {
		if g.val[feat][r] <= thr {
			left[g.y[r]] += g.w[r]
			nl += g.w[r]
			mid++
		}
	}
	nr := n - nl
	if nl < float64(t.minLeaf()) || nr < float64(t.minLeaf()) {
		t.makeLeaf(id, counts, n)
		return id
	}
	for j := range counts {
		counts[j] -= left[j]
	}
	g.path = append(g.path[:depth], split{feat, thr, lo, hi})
	g.grow(t, lo, mid, nl, left, depth+1)
	// A column this split partitioned is laid out for the right child too.
	for f, a := range g.at {
		g.at[f] = min(a, depth+1)
	}
	r := g.grow(t, mid, hi, nr, counts, depth+1)
	t.flat.nodes[id] = flatNode{threshold: thr, feature: int32(feat), right: r}
	return id
}

// column returns feature f's segment [lo, hi) at depth depth, laying f
// out that far first, or nil when f is constant there (and so below).
func (g *grower) column(f, lo, hi, depth int) []int32 {
	val := g.val[f]
	if g.at[f] < 0 {
		// Branch-free: the bootstrap decides each row at random.
		src := g.sorted[f]
		c, j := slices.Grow(g.cols[f][:0], len(src))[:len(src)], 0
		for _, r := range src {
			c[j] = r
			j += g.in[r]
		}
		g.cols[f], g.at[f] = c[:j], 0
	}
	col := g.cols[f]
	for ; g.at[f] < depth; g.at[f]++ {
		s := &g.path[g.at[f]]
		if seg := col[s.lo:s.hi]; val[seg[0]] != val[seg[len(seg)-1]] {
			g.partition(seg, g.val[s.feat], s.thr)
		} else {
			return nil
		}
	}
	if seg := col[lo:hi]; val[seg[0]] != val[seg[len(seg)-1]] {
		return seg
	}
	return nil
}

// partition stably moves the rows of seg with val[row] <= thr ahead of
// the rest. It is branch-free: each row is written to both sides and
// only its own side's cursor advances.
func (g *grower) partition(seg []int32, val []float64, thr float64) {
	right := g.tmp[:len(seg)]
	i, j := 0, 0
	for _, r := range seg {
		l := b2i(val[r] <= thr)
		seg[i], right[j] = r, r
		i, j = i+l, j+1-l
	}
	copy(seg[i:], right[:j])
}

// makeLeaf appends the class distribution counts/n and points node id at it.
func (t *DecisionTree) makeLeaf(id int32, counts []float64, n float64) {
	t.flat.nodes[id].right = int32(len(t.flat.leaves))
	for _, c := range counts {
		p := 0.0
		if n > 0 {
			p = c / n
		}
		t.flat.leaves = append(t.flat.leaves, p)
	}
}

// bestSplit scans the candidate features' segments for the Gini-optimal
// threshold. A gain is taken only between distinct values, so tied rows'
// order never matters; ties in gain go to the first feature drawn, then
// the lowest threshold. A boundary into NaN is never a candidate: NaN
// sorts last and goes right at every split.
func (g *grower) bestSplit(t *DecisionTree, lo, hi int, n float64, counts []float64, depth int) (feat int, thr float64, ok bool) {
	feats := t.candidateFeatures(len(g.cols))
	bestGain := 0.0
	parentGini := giniFromCounts(counts, n)
	left, right := g.left, g.right
	for _, f := range feats {
		col := g.column(f, lo, hi, depth)
		if col == nil {
			continue
		}
		clear(left)
		copy(right, counts)
		nl := 0.0
		val := g.val[f]
		for k, r := range col[:len(col)-1] {
			c, w := g.y[r], g.w[r]
			left[c] += w
			right[c] -= w
			nl += w
			v, next := val[r], val[col[k+1]]
			if v == next {
				continue
			}
			if math.IsNaN(next) {
				break
			}
			nr := n - nl
			gain := parentGini - (nl/n)*giniFromCounts(left, nl) - (nr/n)*giniFromCounts(right, nr)
			if gain > bestGain+1e-12 {
				bestGain = gain
				feat = f
				thr = (v + next) / 2
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

// PredictProba walks each row to its leaf once and writes both the
// majority class and the positive-class (label 1) leaf fraction. An
// unfitted tree predicts all-benign with zero scores.
func (t *DecisionTree) PredictProba(X [][]float64, pred []int, proba []float64) bool {
	t.flat.predictProba(X, pred, proba)
	return true
}

// Predict returns the majority class at each row's leaf.
func (t *DecisionTree) Predict(X [][]float64) []int {
	pred, _ := PredictProba(t, X, nil, nil)
	return pred
}

// Proba returns the positive-class (label 1) leaf fraction per row.
func (t *DecisionTree) Proba(X [][]float64) []float64 {
	_, proba := PredictProba(t, X, nil, nil)
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
func (f *flatTrees) predictProba(X [][]float64, pred []int, proba []float64) {
	pred, proba = pred[:len(X)], proba[:len(X)]
	if len(f.roots) == 0 {
		clear(pred)
		clear(proba)
		return
	}
	k := f.classes
	buf := accPool.Get().(*[]float64)
	if cap(*buf) < len(X)*k {
		*buf = make([]float64, len(X)*k)
	}
	acc := (*buf)[:len(X)*k]
	f.accumulate(X, acc)
	inv := 1 / float64(len(f.roots))
	for i := range pred {
		a := acc[i*k:][:k]
		for j := range a {
			a[j] *= inv
		}
		pred[i] = ArgMax(a)
		proba[i] = a[1]
	}
	accPool.Put(buf)
}

// accPool holds the kernel's accumulators. One pool serves every layout
// (a buffer grows to the largest chunk × classes it has scored), and a
// forest shared across goroutines scores each call into its own.
var accPool = sync.Pool{New: func() any { return new([]float64) }}

// accumulate is predictProba's block walk: it sums, into row i's slot
// of acc, the leaf distributions of row i in every tree. It is a
// function of its own so that the walk's code does not depend on where
// the caller's outputs come from: the walk spills heavily, and a change
// to the signature it sits in moves its register allocation.
func (f *flatTrees) accumulate(X [][]float64, acc []float64) {
	clear(acc)
	nodes, leaves, roots, k := f.nodes, f.leaves, f.roots, f.classes
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
