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
		return math.Exp2(-lambda * dt)
	}
	return 1
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
