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

// sameExp2 fails the test unless exp2(x) is math.Exp2(x) to the bit.
func sameExp2(t *testing.T, x float64) {
	if got, want := exp2(x), math.Exp2(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("exp2(%v) = %v (%#x), math.Exp2 gives %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestExp2MatchesMathExp2: the inline exp2 behind every decay factor is
// math.Exp2 bit for bit — on 10⁷ random x ≤ 0, half uniform over
// [−1100, 0] (past both the inline range's −1020 cut-over and the −1074
// underflow) and half log-uniform in magnitude from 2⁻⁶⁰ to 2¹¹, and on
// the edges: ±0, the cut-over and its neighbours, the reduction's
// rounding ties, subnormal results, underflow, NaN, ±Inf and x > 0.
func TestExp2MatchesMathExp2(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), -0.5, -1.5, -1019.5, -1020, -1020.5,
		math.Nextafter(-1020, 0), math.Nextafter(-1020, math.Inf(-1)),
		-1022, -1023.7, -1074, -1074.5, math.Nextafter(-1074, math.Inf(-1)), -1075, -1e300,
		-5e-324, -1e-300, math.Inf(-1), math.NaN(), math.Inf(1), 0.5, 1, 1023.9, 1024,
	}
	for _, x := range edges {
		sameExp2(t, x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000_000; i++ {
		u := rng.Float64()
		x := -1100 * u
		if i%2 == 1 {
			x = -math.Exp2(-60 + 71*u)
		}
		sameExp2(t, x)
	}
}

// BenchmarkDecayFactor is the decay of one statistic's insert, over the
// rates a Kitsune pipeline runs (5, 3, 1, 0.1 and 0.01 per second) and
// inter-arrival gaps from a microsecond to a minute.
func BenchmarkDecayFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lambdas := []float64{5, 3, 1, 0.1, 0.01}
	var lambda, dt [1024]float64
	for i := range dt {
		lambda[i] = lambdas[i%len(lambdas)]
		dt[i] = math.Pow(10, -6+7.8*rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(dt)
		decaySink += decayFactor(lambda[j], dt[j])
	}
}

// decaySink keeps BenchmarkDecayFactor's calls from being optimized away.
var decaySink float64
