package mlkit

import "sort"

// Confusion holds binary-classification counts with class 1 as positive.
type Confusion struct {
	TP, FP, TN, FN int
}

// NewConfusion tallies a confusion matrix from true and predicted labels.
// Any non-zero label counts as positive.
func NewConfusion(yTrue, yPred []int) Confusion {
	var c Confusion
	for i := range yTrue {
		t := yTrue[i] != 0
		p := i < len(yPred) && yPred[i] != 0
		switch {
		case t && p:
			c.TP++
		case !t && p:
			c.FP++
		case t && !p:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Precision returns TP/(TP+FP), or 0 when no positives were predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there are no true positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Accuracy returns the fraction of correct predictions.
func (c Confusion) Accuracy() float64 {
	n := c.TP + c.FP + c.TN + c.FN
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Precision is a convenience wrapper over NewConfusion.
func Precision(yTrue, yPred []int) float64 { return NewConfusion(yTrue, yPred).Precision() }

// Recall is a convenience wrapper over NewConfusion.
func Recall(yTrue, yPred []int) float64 { return NewConfusion(yTrue, yPred).Recall() }

// Accuracy is a convenience wrapper over NewConfusion.
func Accuracy(yTrue, yPred []int) float64 { return NewConfusion(yTrue, yPred).Accuracy() }

// F1Score is a convenience wrapper over NewConfusion.
func F1Score(yTrue, yPred []int) float64 { return NewConfusion(yTrue, yPred).F1() }

// AUC computes the area under the ROC curve from positive-class scores.
// Ties are handled by the rank-sum (Mann–Whitney) formulation. It returns
// 0.5 when either class is absent.
func AUC(yTrue []int, scores []float64) float64 {
	type pair struct {
		s float64
		y int
	}
	ps := make([]pair, 0, len(yTrue))
	var nPos, nNeg int
	for i := range yTrue {
		y := 0
		if yTrue[i] != 0 {
			y = 1
			nPos++
		} else {
			nNeg++
		}
		ps = append(ps, pair{scores[i], y})
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	// Assign average ranks across tied scores.
	ranks := make([]float64, len(ps))
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		avg := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	var rankSumPos float64
	for i, p := range ps {
		if p.y == 1 {
			rankSumPos += ranks[i]
		}
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}
