package mlkit

import "sort"

// P2Quantile estimates a single quantile of a stream in O(1) memory using
// the P² algorithm (Jain & Chlamtac, CACM 1985): five markers track the
// min, max, target quantile and its two flanking mid-quantiles, adjusted
// by parabolic interpolation as observations arrive. For fewer than five
// observations the estimate is exact (computed from the buffered values).
// It backs Thresholded's online threshold calibration.
type P2Quantile struct {
	p   float64
	q   [5]float64 // marker heights
	n   [5]float64 // marker positions (1-based)
	np  [5]float64 // desired positions
	dnp [5]float64 // desired-position increments
	cnt int
}

// NewP2Quantile returns an estimator for quantile p in (0,1).
func NewP2Quantile(p float64) *P2Quantile { return &P2Quantile{p: p} }

// Quantile reports the target quantile the estimator tracks.
func (e *P2Quantile) Quantile() float64 { return e.p }

// Count reports the number of observations absorbed so far.
func (e *P2Quantile) Count() int { return e.cnt }

// Add absorbs one observation.
func (e *P2Quantile) Add(x float64) {
	if e.cnt < 5 {
		e.q[e.cnt] = x
		e.cnt++
		if e.cnt == 5 {
			sort.Float64s(e.q[:])
			p := e.p
			for i := range e.n {
				e.n[i] = float64(i + 1)
			}
			e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			e.dnp = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}
	e.cnt++
	// Locate the cell and stretch the extreme markers if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x < e.q[1]:
		k = 0
	case x < e.q[2]:
		k = 1
	case x < e.q[3]:
		k = 2
	case x <= e.q[4]:
		k = 3
	default:
		e.q[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.np {
		e.np[i] += e.dnp[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			qp := e.parabolic(i, s)
			if e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+s)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-s)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}

// Value returns the current quantile estimate (exact below five
// observations, the P² marker estimate after).
func (e *P2Quantile) Value() float64 {
	if e.cnt == 0 {
		return 0
	}
	if e.cnt < 5 {
		buf := append([]float64(nil), e.q[:e.cnt]...)
		sort.Float64s(buf)
		return QuantileSorted(buf, e.p)
	}
	return e.q[2]
}

// PageHinkley detects upward drift in a stream's mean (Page's CUSUM test
// in the Hinkley form): it accumulates deviations of each observation
// from the running mean, minus a tolerance Delta, and signals when the
// accumulated sum rises more than Lambda above its historical minimum.
// With TwoSided set, the mirrored test runs as well and mean decreases
// fire detections too. Applied to anomaly-score streams it flags
// distribution shift — the trigger behind the `drift_detect` op.
type PageHinkley struct {
	// Delta is the magnitude tolerance subtracted from each deviation;
	// 0 means 0.005.
	Delta float64
	// Lambda is the detection threshold on (cum - min); 0 means 50.
	Lambda float64
	// MinSamples is the warm-up before detections may fire; 0 means 30.
	MinSamples int
	// TwoSided also runs the mirrored test, so drops in the stream's mean
	// fire detections too. A detector watching a score stream usually
	// wants this: a model gone blind (scores collapsing toward zero) is
	// drift just as much as a score surge.
	TwoSided bool

	n        int
	mean     float64
	cum      float64
	minCum   float64
	cumDn    float64
	minCumDn float64
	// lastStat / lastMean capture the test statistic and running mean at
	// the moment of the most recent detection, surviving the reset so the
	// caller can report what fired.
	lastStat float64
	lastMean float64
}

func (ph *PageHinkley) delta() float64 {
	if ph.Delta == 0 {
		return 0.005
	}
	return ph.Delta
}

func (ph *PageHinkley) lambda() float64 {
	if ph.Lambda == 0 {
		return 50
	}
	return ph.Lambda
}

func (ph *PageHinkley) minSamples() int {
	if ph.MinSamples == 0 {
		return 30
	}
	return ph.MinSamples
}

// Add absorbs one observation and reports whether drift was detected.
// On detection the accumulated state resets, arming the next detection.
func (ph *PageHinkley) Add(x float64) bool {
	ph.n++
	ph.mean += (x - ph.mean) / float64(ph.n)
	ph.cum += x - ph.mean - ph.delta()
	if ph.cum < ph.minCum {
		ph.minCum = ph.cum
	}
	ph.cumDn += ph.mean - x - ph.delta()
	if ph.cumDn < ph.minCumDn {
		ph.minCumDn = ph.cumDn
	}
	if ph.n < ph.minSamples() {
		return false
	}
	if ph.cum-ph.minCum > ph.lambda() {
		ph.lastStat = ph.cum - ph.minCum
		ph.lastMean = ph.mean
		ph.Reset()
		return true
	}
	if ph.TwoSided && ph.cumDn-ph.minCumDn > ph.lambda() {
		ph.lastStat = ph.cumDn - ph.minCumDn
		ph.lastMean = ph.mean
		ph.Reset()
		return true
	}
	return false
}

// LastDetection returns the test statistic and running mean captured at
// the most recent detection (zeroes before any detection fires).
func (ph *PageHinkley) LastDetection() (stat, mean float64) {
	return ph.lastStat, ph.lastMean
}

// Stat returns the current test statistic (cum - min), the value
// compared against Lambda.
func (ph *PageHinkley) Stat() float64 { return ph.cum - ph.minCum }

// Mean returns the running mean of all observations since the last reset.
func (ph *PageHinkley) Mean() float64 { return ph.mean }

// Count returns observations absorbed since the last reset.
func (ph *PageHinkley) Count() int { return ph.n }

// Reset clears all accumulated state (called automatically on detection).
func (ph *PageHinkley) Reset() {
	ph.n = 0
	ph.mean = 0
	ph.cum = 0
	ph.minCum = 0
	ph.cumDn = 0
	ph.minCumDn = 0
}
