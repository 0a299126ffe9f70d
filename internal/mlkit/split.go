package mlkit

// StratifiedSplit splits while preserving the class ratio in both halves.
func StratifiedSplit(X [][]float64, y []int, testFrac float64, seed int64) (Xtr [][]float64, ytr []int, Xte [][]float64, yte []int) {
	byClass := map[int][]int{}
	for i, label := range y {
		byClass[label] = append(byClass[label], i)
	}
	rng := NewRNG(seed)
	// Iterate classes in a stable order for determinism.
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	for i := 0; i < len(classes); i++ { // insertion sort: class count is tiny
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(idx)
		nTest := int(float64(len(idx)) * testFrac)
		for i, id := range idx {
			if i < nTest {
				Xte = append(Xte, X[id])
				yte = append(yte, y[id])
			} else {
				Xtr = append(Xtr, X[id])
				ytr = append(ytr, y[id])
			}
		}
	}
	return Xtr, ytr, Xte, yte
}

// Subsample returns up to n rows sampled without replacement (deterministic
// by seed). When len(X) <= n it returns the inputs unchanged.
func Subsample(X [][]float64, y []int, n int, seed int64) ([][]float64, []int) {
	if len(X) <= n {
		return X, y
	}
	perm := NewRNG(seed).Perm(len(X))
	Xs := make([][]float64, n)
	var ys []int
	if y != nil {
		ys = make([]int, n)
	}
	for i := 0; i < n; i++ {
		Xs[i] = X[perm[i]]
		if y != nil {
			ys[i] = y[perm[i]]
		}
	}
	return Xs, ys
}
