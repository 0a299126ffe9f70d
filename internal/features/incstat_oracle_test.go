package features

import (
	"math"
	"math/rand"
	"testing"
)

// refIncStat and refIncStat2D are the statistics as they were when every
// IncStat2D held two heap IncStats and kept a third clock of its own, each
// computing its own decay factor. Insert now computes one factor per
// statistic (one for all of a 2D statistic); the results must not move by
// a bit.
type refIncStat struct {
	lambda, w, ls, ss, lastTs float64
	seen                      bool
}

func (s *refIncStat) insert(v, ts float64) {
	if !s.seen {
		s.seen = true
		s.lastTs = ts
	} else {
		if s.lambda > 0 && ts > s.lastTs {
			f := math.Exp2(-s.lambda * (ts - s.lastTs))
			s.w *= f
			s.ls *= f
			s.ss *= f
		}
		if ts > s.lastTs {
			s.lastTs = ts
		}
	}
	s.w++
	s.ls += v
	s.ss += v * v
}

func (s *refIncStat) mean() float64 {
	if s.w == 0 {
		return 0
	}
	return s.ls / s.w
}

type refIncStat2D struct {
	a, b          *refIncStat
	sr, w, lastTs float64
	seen          bool
}

func (s *refIncStat2D) insert(va, vb, ts float64) {
	if s.seen && s.a.lambda > 0 && ts > s.lastTs {
		f := math.Exp2(-s.a.lambda * (ts - s.lastTs))
		s.sr *= f
		s.w *= f
	}
	if !s.seen || ts > s.lastTs {
		s.lastTs = ts
	}
	s.seen = true
	s.a.insert(va, ts)
	s.b.insert(vb, ts)
	s.sr += (va - s.a.mean()) * (vb - s.b.mean())
	s.w++
}

// TestIncStatMatchesReference drives both implementations with the same
// inserts — bursts at one instant, long idles, timestamps running
// backwards, damping on and off — and compares every internal sum's bits.
func TestIncStatMatchesReference(t *testing.T) {
	for _, lambda := range []float64{0, 0.01, 1, 5} {
		rng := rand.New(rand.NewSource(int64(lambda*100) + 1))
		one, refOne := &IncStat{Lambda: lambda}, &refIncStat{lambda: lambda}
		two := NewIncStat2D(lambda)
		refTwo := &refIncStat2D{a: &refIncStat{lambda: lambda}, b: &refIncStat{lambda: lambda}}
		ts := 1.7e9
		for i := 0; i < 5000; i++ {
			switch rng.Intn(10) {
			case 0: // same instant
			case 1:
				ts -= rng.Float64() // out of order
			case 2:
				ts += 500 * rng.Float64() // long idle
			default:
				ts += 0.01 * rng.Float64()
			}
			va, vb := 1500*rng.Float64(), 1400*rng.Float64()
			one.Insert(va, ts)
			refOne.insert(va, ts)
			two.Insert(va, vb, ts)
			refTwo.insert(va, vb, ts)
			for name, pair := range map[string][2]float64{
				"w": {one.w, refOne.w}, "ls": {one.ls, refOne.ls}, "ss": {one.ss, refOne.ss}, "lastTs": {one.LastTs(), refOne.lastTs},
				"2D sr": {two.sr, refTwo.sr}, "2D w": {two.w, refTwo.w},
				"A.w": {two.A.w, refTwo.a.w}, "A.ls": {two.A.ls, refTwo.a.ls}, "A.ss": {two.A.ss, refTwo.a.ss},
				"B.w": {two.B.w, refTwo.b.w}, "B.ls": {two.B.ls, refTwo.b.ls}, "B.ss": {two.B.ss, refTwo.b.ss},
				"B.lastTs": {two.B.LastTs(), refTwo.b.lastTs},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("lambda %v, insert %d: %s = %v, reference %v", lambda, i, name, pair[0], pair[1])
				}
			}
		}
	}
}
