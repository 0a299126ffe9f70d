package mlkit

import (
	"math"
	"sort"

	"lumen/internal/mlkit/linalg"
)

// KNN is a k-nearest-neighbours classifier over Euclidean distance with
// optional training-set subsampling to bound inference cost. The stored
// training set is flattened into one row-major matrix at Fit time and
// queries fan out across the worker pool. The scan kernel processes four
// query rows per pass over the training matrix (each training element is
// loaded once for four distance accumulations, and the four independent
// accumulator chains hide FP-add latency); for wider feature vectors it
// additionally abandons a training row part-way once every partial
// distance already exceeds the current K-th best (partial-distance
// search), which prunes most of the scan on clustered data.
type KNN struct {
	// K is the neighbourhood size; 0 means 5.
	K int
	// MaxTrain caps the stored training set (uniform subsample); 0 means
	// 4096. Set negative to keep everything.
	MaxTrain int
	// Seed drives the subsample.
	Seed int64

	x       [][]float64
	y       []int
	classes int
	flat    *linalg.Dense // stored rows, flattened
}

func (k *KNN) kval() int {
	if k.K == 0 {
		return 5
	}
	return k.K
}

// Fit stores (a subsample of) the training data.
func (k *KNN) Fit(X [][]float64, y []int) error {
	if _, err := checkXY(X, y); err != nil {
		return err
	}
	maxTrain := k.MaxTrain
	if maxTrain == 0 {
		maxTrain = 4096
	}
	if maxTrain > 0 && len(X) > maxTrain {
		X, y = Subsample(X, y, maxTrain, k.Seed)
	}
	k.x = X
	k.y = y
	k.flat = linalg.FromRows(X)
	k.classes = classCount(y)
	return nil
}

// knnEarlyExitDim is the minimum feature count at which the scan kernel
// re-checks partial distances against the per-query thresholds every
// knnChunk features. Below it a row is at most one chunk anyway and the
// extra branches only cost.
const (
	knnEarlyExitDim = 8
	knnChunk        = 4
)

// knnInsert places (s, label) into the sorted bounded top-K arrays.
// Ties keep the earlier-seen element (strict > comparison while
// shifting), matching a serial first-wins scan.
func knnInsert(bd []float64, by []int, s float64, label, nf, kk int) int {
	pos := nf
	if nf == kk {
		pos = kk - 1
	}
	for pos > 0 && bd[pos-1] > s {
		bd[pos] = bd[pos-1]
		by[pos] = by[pos-1]
		pos--
	}
	bd[pos] = s
	by[pos] = label
	if nf == kk {
		return kk
	}
	return nf + 1
}

// scan4 runs the bounded top-K scan for the query rows i0..i3, filling
// bestD/bestY (4*kk each) and filled (4). Each query's
// distances accumulate in fixed feature order regardless of grouping or
// worker count, and the early-exit gates only skip rows whose full
// distance provably cannot enter that query's top-K, so results are
// bit-identical to four independent serial scans.
func (k *KNN) scan4(q *linalg.Dense, i0, i1, i2, i3, kk int, bestD []float64, bestY []int, filled []int) {
	d := q.Cols
	// The [:d] re-slices pin the row lengths to d for the prover, so the
	// accumulation loops below run without bounds checks.
	a0, a1, a2, a3 := q.Row(i0)[:d], q.Row(i1)[:d], q.Row(i2)[:d], q.Row(i3)[:d]
	bd0, by0 := bestD[:kk], bestY[:kk]
	bd1, by1 := bestD[kk:2*kk], bestY[kk:2*kk]
	bd2, by2 := bestD[2*kk:3*kk], bestY[2*kk:3*kk]
	bd3, by3 := bestD[3*kk:4*kk], bestY[3*kk:4*kk]
	inf := math.Inf(1)
	t0, t1, t2, t3 := inf, inf, inf, inf
	nf0, nf1, nf2, nf3 := 0, 0, 0, 0
	early := d >= knnEarlyExitDim
	data := k.flat.Data
	off := 0
	for j := 0; j < k.flat.Rows; j, off = j+1, off+d {
		tr := data[off : off+d]
		var s0, s1, s2, s3 float64
		x := 0
		if early {
			alive := true
			for ; x+knnChunk <= len(tr); x += knnChunk {
				e0 := a0[x] - tr[x]
				s0 += e0 * e0
				e1 := a1[x] - tr[x]
				s1 += e1 * e1
				e2 := a2[x] - tr[x]
				s2 += e2 * e2
				e3 := a3[x] - tr[x]
				s3 += e3 * e3
				e0 = a0[x+1] - tr[x+1]
				s0 += e0 * e0
				e1 = a1[x+1] - tr[x+1]
				s1 += e1 * e1
				e2 = a2[x+1] - tr[x+1]
				s2 += e2 * e2
				e3 = a3[x+1] - tr[x+1]
				s3 += e3 * e3
				e0 = a0[x+2] - tr[x+2]
				s0 += e0 * e0
				e1 = a1[x+2] - tr[x+2]
				s1 += e1 * e1
				e2 = a2[x+2] - tr[x+2]
				s2 += e2 * e2
				e3 = a3[x+2] - tr[x+2]
				s3 += e3 * e3
				e0 = a0[x+3] - tr[x+3]
				s0 += e0 * e0
				e1 = a1[x+3] - tr[x+3]
				s1 += e1 * e1
				e2 = a2[x+3] - tr[x+3]
				s2 += e2 * e2
				e3 = a3[x+3] - tr[x+3]
				s3 += e3 * e3
				if s0 >= t0 && s1 >= t1 && s2 >= t2 && s3 >= t3 {
					alive = false
					break
				}
			}
			if !alive {
				continue
			}
		}
		if x == 0 {
			for xx, t := range tr {
				e0 := a0[xx] - t
				s0 += e0 * e0
				e1 := a1[xx] - t
				s1 += e1 * e1
				e2 := a2[xx] - t
				s2 += e2 * e2
				e3 := a3[xx] - t
				s3 += e3 * e3
			}
		} else {
			for ; x < len(tr); x++ {
				t := tr[x]
				e0 := a0[x] - t
				s0 += e0 * e0
				e1 := a1[x] - t
				s1 += e1 * e1
				e2 := a2[x] - t
				s2 += e2 * e2
				e3 := a3[x] - t
				s3 += e3 * e3
			}
		}
		if s0 < t0 {
			nf0 = knnInsert(bd0, by0, s0, k.y[j], nf0, kk)
			if nf0 == kk {
				t0 = bd0[kk-1]
			}
		}
		if s1 < t1 {
			nf1 = knnInsert(bd1, by1, s1, k.y[j], nf1, kk)
			if nf1 == kk {
				t1 = bd1[kk-1]
			}
		}
		if s2 < t2 {
			nf2 = knnInsert(bd2, by2, s2, k.y[j], nf2, kk)
			if nf2 == kk {
				t2 = bd2[kk-1]
			}
		}
		if s3 < t3 {
			nf3 = knnInsert(bd3, by3, s3, k.y[j], nf3, kk)
			if nf3 == kk {
				t3 = bd3[kk-1]
			}
		}
	}
	filled[0], filled[1], filled[2], filled[3] = nf0, nf1, nf2, nf3
}

// scan1 is the single-query tail of scan4, with the same accumulation
// order and pruning rule.
func (k *KNN) scan1(q *linalg.Dense, i, kk int, bd []float64, by []int) int {
	d := q.Cols
	a := q.Row(i)[:d]
	thresh := math.Inf(1)
	nf := 0
	early := d >= knnEarlyExitDim
	data := k.flat.Data
	off := 0
	for j := 0; j < k.flat.Rows; j, off = j+1, off+d {
		tr := data[off : off+d]
		var s float64
		x := 0
		if early {
			alive := true
			for ; x+knnChunk <= len(tr); x += knnChunk {
				e := a[x] - tr[x]
				s += e * e
				e = a[x+1] - tr[x+1]
				s += e * e
				e = a[x+2] - tr[x+2]
				s += e * e
				e = a[x+3] - tr[x+3]
				s += e * e
				if s >= thresh {
					alive = false
					break
				}
			}
			if !alive {
				continue
			}
		}
		if x == 0 {
			for xx, t := range tr {
				e := a[xx] - t
				s += e * e
			}
		} else {
			for ; x < len(tr); x++ {
				e := a[x] - tr[x]
				s += e * e
			}
		}
		if s < thresh {
			nf = knnInsert(bd, by, s, k.y[j], nf, kk)
			if nf == kk {
				thresh = bd[kk-1]
			}
		}
	}
	return nf
}

// votes returns the class-frequency distribution among the K nearest
// stored points for every row of X. Query rows are split across the
// worker pool; each row's result depends only on its own accumulation
// over the training set in index order, so votes are bit-identical for
// any worker count or grouping. Queries are processed in order of
// squared norm so that the four rows sharing a scan4 pass tend to come
// from the same data cluster — then the all-four early-exit gate fires
// on almost every far-away training row. The processing order changes
// neither any query's result nor where it lands in the output.
func (k *KNN) votes(X [][]float64) *linalg.Dense {
	out := linalg.NewDense(len(X), k.classes)
	if len(X) == 0 || len(k.x) == 0 {
		return out
	}
	kk := k.kval()
	if kk > len(k.x) {
		kk = len(k.x)
	}
	q := linalg.FromRows(X)
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	qn := q.SqNorms(nil)
	sort.SliceStable(order, func(a, b int) bool { return qn[order[a]] < qn[order[b]] })
	linalg.ParallelRows(len(X), func(lo, hi int) {
		bestD := make([]float64, 4*kk)
		bestY := make([]int, 4*kk)
		filled := make([]int, 4)
		emit := func(row int, bd []float64, by []int, nf int) {
			counts := out.Row(row)
			for _, label := range by[:nf] {
				counts[label]++
			}
			if nf > 0 {
				inv := 1 / float64(nf)
				for c := range counts {
					counts[c] *= inv
				}
			}
		}
		p := lo
		for ; p+3 < hi; p += 4 {
			i0, i1, i2, i3 := order[p], order[p+1], order[p+2], order[p+3]
			k.scan4(q, i0, i1, i2, i3, kk, bestD, bestY, filled)
			emit(i0, bestD[:kk], bestY[:kk], filled[0])
			emit(i1, bestD[kk:2*kk], bestY[kk:2*kk], filled[1])
			emit(i2, bestD[2*kk:3*kk], bestY[2*kk:3*kk], filled[2])
			emit(i3, bestD[3*kk:4*kk], bestY[3*kk:4*kk], filled[3])
		}
		for ; p < hi; p++ {
			nf := k.scan1(q, order[p], kk, bestD[:kk], bestY[:kk])
			emit(order[p], bestD[:kk], bestY[:kk], nf)
		}
	})
	return out
}

// PredictProba scans the neighbours once and returns the majority class
// and the neighbour fraction of class 1 per row.
func (k *KNN) PredictProba(X [][]float64) ([]int, []float64) {
	v := k.votes(X)
	pred := make([]int, len(X))
	proba := make([]float64, len(X))
	for i := range pred {
		pred[i] = ArgMax(v.Row(i))
		if v.Cols > 1 {
			proba[i] = v.At(i, 1)
		}
	}
	return pred, proba
}

// Predict returns the majority class among neighbours per row.
func (k *KNN) Predict(X [][]float64) []int {
	pred, _ := k.PredictProba(X)
	return pred
}

// Proba returns the neighbour fraction of class 1 per row.
func (k *KNN) Proba(X [][]float64) []float64 {
	_, proba := k.PredictProba(X)
	return proba
}
