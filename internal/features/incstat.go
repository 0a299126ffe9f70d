// Package features implements the statistical feature primitives the ported
// algorithms share: damped incremental 1D/2D statistics (the AfterImage
// structures behind Kitsune's per-packet features), Shannon entropy over
// categorical counters, and nprint's bit-level packet representation.
package features

import "math"

// IncStat maintains exponentially damped count/mean/variance of a value
// stream, O(1) per insert. The decay halves the weight of history every
// 1/Lambda seconds, so features adapt to traffic shifts the way Kitsune's
// AfterImage does.
type IncStat struct {
	// Lambda is the decay rate in 1/seconds; 0 disables damping.
	Lambda float64

	w      float64 // damped count
	ls     float64 // damped linear sum
	ss     float64 // damped squared sum
	lastTs float64
	seen   bool
}

// Insert adds value v observed at time ts (seconds).
func (s *IncStat) Insert(v, ts float64) {
	s.add(v, decayFactor(s.Lambda, s.elapse(ts)))
}

// LastTs is the latest observation time: the instant the next insert's
// decay is measured from (0 before any insert).
func (s *IncStat) LastTs() float64 { return s.lastTs }

// elapse advances the statistic's clock to ts and returns how long its
// history has to fade over: 0 on the first insert and whenever ts does
// not move the clock forward.
func (s *IncStat) elapse(ts float64) (dt float64) {
	if !s.seen {
		s.seen = true
		s.lastTs = ts
		return 0
	}
	if ts > s.lastTs {
		dt = ts - s.lastTs
		s.lastTs = ts
	}
	return dt
}

// decayFactor is what history fades by over dt seconds at rate lambda;
// exactly 1 with damping off or no time elapsed.
func decayFactor(lambda, dt float64) float64 {
	if lambda > 0 && dt > 0 {
		return exp2(-lambda * dt)
	}
	return 1
}

// exp2 is math.Exp2, with the range decays take, −1020 < x ≤ 0, computed
// inline: the same reduction and polynomial, then 2^k applied by adding k
// to the exponent bits, which is Ldexp's result while it stays normal (it
// does here: 2^k ≥ 2^−1020 and the reduced value is at least 2^−½). Any
// other x, NaN included, goes to math.Exp2.
func exp2(x float64) float64 {
	if !(x > -1020 && x <= 0) {
		return math.Exp2(x)
	}
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		p1    = 1.66666666666666657415e-01
		p2    = -2.77777777770155933842e-03
		p3    = 6.61375632143793436117e-05
		p4    = -1.65339022054652515390e-06
		p5    = 4.13813679705723846039e-08
	)
	k := 0
	if x < 0 {
		k = int(x - 0.5)
	}
	t := x - float64(k)
	hi, lo := t*ln2Hi, -t*ln2Lo
	r := hi - lo
	rr := r * r
	c := r - rr*(p1+rr*(p2+rr*(p3+rr*(p4+rr*p5))))
	y := 1 - ((lo - (r*c)/(2-c)) - hi)
	return math.Float64frombits(math.Float64bits(y) + uint64(k)<<52)
}

// add fades the sufficient statistics by f, then counts v.
func (s *IncStat) add(v, f float64) {
	s.w *= f
	s.ls *= f
	s.ss *= f
	s.w++
	s.ls += v
	s.ss += v * v
}

// Weight returns the damped observation count.
func (s *IncStat) Weight() float64 { return s.w }

// Mean returns the damped mean (0 before any insert).
func (s *IncStat) Mean() float64 {
	if s.w == 0 {
		return 0
	}
	return s.ls / s.w
}

// Var returns the damped variance (never negative).
func (s *IncStat) Var() float64 {
	if s.w == 0 {
		return 0
	}
	m := s.ls / s.w
	v := s.ss/s.w - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// Std returns the damped standard deviation.
func (s *IncStat) Std() float64 { return math.Sqrt(s.Var()) }

// IncStat2D tracks the damped covariance between two co-observed streams
// (Kitsune's 2D "socket" statistics), plus the joint magnitude and radius
// features derived from the pair of 1D statistics. A and B are held by
// value, so a 2D statistic is one pointer-free block; they are for
// reading: Insert drives both, which keeps the three clocks equal and
// lets one decay factor serve all of them.
type IncStat2D struct {
	A, B IncStat

	sr float64 // damped sum of residual products
	w  float64 // damped joint count
}

// NewIncStat2D builds a 2D statistic over two damped 1D streams sharing
// the decay rate lambda.
func NewIncStat2D(lambda float64) *IncStat2D {
	return &IncStat2D{A: IncStat{Lambda: lambda}, B: IncStat{Lambda: lambda}}
}

// Insert adds the co-observed pair (va, vb) at time ts.
func (s *IncStat2D) Insert(va, vb, ts float64) {
	dt := s.A.elapse(ts)
	s.B.elapse(ts)
	f := decayFactor(s.A.Lambda, dt)
	s.sr *= f
	s.w *= f
	s.A.add(va, f)
	s.B.add(vb, f)
	s.sr += (va - s.A.Mean()) * (vb - s.B.Mean())
	s.w++
}

// Cov returns the damped covariance estimate.
func (s *IncStat2D) Cov() float64 {
	if s.w == 0 {
		return 0
	}
	return s.sr / s.w
}

// Magnitude returns sqrt(meanA² + meanB²), Kitsune's joint-magnitude
// feature.
func (s *IncStat2D) Magnitude() float64 {
	ma, mb := s.A.Mean(), s.B.Mean()
	return math.Sqrt(ma*ma + mb*mb)
}
